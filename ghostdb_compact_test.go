package ghostdb

import (
	"context"
	"testing"
)

// TestCompactKeepsAnswers runs UPDATEs through the public API, then
// DB.Compact: the answers read through the delta overlay before the
// compaction must be the ones read from the rebuilt images after it,
// and the token must report one compaction and an empty delta log.
func TestCompactKeepsAnswers(t *testing.T) {
	db := ordersDB(t, 40, 600, Options{FlashBlocks: 4096, CompactThreshold: -1})
	for _, sql := range []string{
		`UPDATE Orders SET amount = 999.5 WHERE quarter = '2006-Q2'`,
		`UPDATE Customers SET company = 'corp-zz' WHERE id = 3`,
		`DELETE FROM Orders WHERE id < 10`,
	} {
		if err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	queries := []string{
		`SELECT Orders.id, Orders.amount FROM Orders, Customers
		   WHERE Orders.customer_id = Customers.id AND Customers.region = 'south' AND Orders.amount > 900.0`,
		`SELECT id, company FROM Customers WHERE id = 3`,
		`SELECT Orders.id, Customers.company FROM Orders, Customers
		   WHERE Orders.customer_id = Customers.id AND Customers.company = 'corp-zz'`,
	}
	before := make([]*Result, len(queries))
	for i, sql := range queries {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		before[i] = res
	}
	if st := db.ShardDeltaStats()[0]; st.Pages == 0 || st.Compactions != 0 {
		t.Fatalf("before Compact: delta stats %+v, want live delta pages and no compaction", st)
	}

	if err := db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := db.ShardDeltaStats()[0]; st.Pages != 0 || st.Compactions != 1 {
		t.Fatalf("after Compact: delta stats %+v, want 0 delta pages and 1 compaction", st)
	}
	for i, sql := range queries {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !sameRows(res, before[i]) {
			t.Fatalf("%s: %d rows after Compact, %d before (or they differ)", sql, len(res.Rows), len(before[i].Rows))
		}
	}

	// The updates themselves, read back as constructed values.
	if r := before[0].Rows; len(r) == 0 || !r[0][1].Equal(FloatVal(999.5)) {
		t.Fatalf("updated amounts: %v", r)
	}
	if r := before[1].Rows; len(r) != 1 || !r[0][0].Equal(IntVal(3)) || !r[0][1].Equal(CharVal("corp-zz")) {
		t.Fatalf("updated customer: %v", r)
	}
	for _, row := range before[2].Rows {
		if row[0].Compare(IntVal(10)) < 0 {
			t.Fatalf("deleted order %v still answers", row[0])
		}
	}
}

// TestPageCacheHitsOnRepeatedVisibleSelection repeats a visible
// selection with the page cache on (and the result cache off, so the
// statement really runs again): the second run must hit the page cache
// and give the same answer.
func TestPageCacheHitsOnRepeatedVisibleSelection(t *testing.T) {
	db := ordersDB(t, 40, 600, Options{FlashBlocks: 4096, PageCacheBytes: 1 << 20})
	const sql = `SELECT Orders.id, Customers.company FROM Orders, Customers
	   WHERE Orders.customer_id = Customers.id AND Customers.region = 'north' AND Orders.amount >= 200.0`
	first, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	hits := db.PageCacheStats().Hits
	second, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.PageCacheStats().Hits; got <= hits {
		t.Fatalf("page cache hits %d after the repeat, %d before", got, hits)
	}
	if len(first.Rows) == 0 || !sameRows(first, second) {
		t.Fatalf("repeat answered %d rows, first run %d (or they differ)", len(second.Rows), len(first.Rows))
	}
}
