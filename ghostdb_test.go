package ghostdb

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func patientsDB(t *testing.T) *DB {
	t.Helper()
	db, err := Create([]string{
		`CREATE TABLE Patients (id int, name char(200) HIDDEN,
		   age int, city char(100), bodymassindex float HIDDEN)`,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ld := db.Loader()
	rows := []R{
		{"name": "Durand", "age": 50, "city": "Paris", "bodymassindex": 23.0},
		{"name": "Martin", "age": 50, "city": "Lyon", "bodymassindex": 31.5},
		{"name": "Dubois", "age": 44, "city": "Paris", "bodymassindex": 23.0},
		{"name": "Leroy", "age": 50, "city": "Lille", "bodymassindex": 23.0},
	}
	for _, r := range rows {
		if err := ld.Append("Patients", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPaperQuickstartQuery(t *testing.T) {
	db := patientsDB(t)
	res, err := db.Query(`SELECT * FROM Patients WHERE age = 50 AND bodymassindex = 23.0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Columns[1] != "Patients.name" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Rows[0][1].S != "Durand" || res.Rows[1][1].S != "Leroy" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Stats.SimTime <= 0 {
		t.Fatal("no cost reported")
	}
}

func TestInsertThroughExec(t *testing.T) {
	db := patientsDB(t)
	if err := db.Exec(`INSERT INTO Patients (name, age, city, bodymassindex)
	    VALUES ('Petit', 50, 'Nantes', 23.0)`); err != nil {
		t.Fatal(err)
	}
	n, err := db.Rows("Patients")
	if err != nil || n != 5 {
		t.Fatalf("rows = %d, %v", n, err)
	}
	res, err := db.Query(`SELECT name FROM Patients WHERE bodymassindex = 23.0 AND age = 50`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows after insert = %v", res.Rows)
	}
}

func TestTreeSchemaThroughPublicAPI(t *testing.T) {
	db, err := Create([]string{
		`CREATE TABLE Orders (id int, customer_id int REFERENCES Customers HIDDEN,
		   quarter char(7), amount float HIDDEN)`,
		`CREATE TABLE Customers (id int, company char(30) HIDDEN, region char(20))`,
	}, Options{RAMBytes: 32 << 10, ThroughputMBps: 2, FlashPageSize: 2048, FlashBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ld := db.Loader()
	for i := 0; i < 10; i++ {
		if err := ld.Append("Customers", R{"company": "corp", "region": []string{"north", "south"}[i%2]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := ld.Append("Orders", R{"customer_id": i % 10, "quarter": "2006-Q4", "amount": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT Orders.id, Customers.company FROM Orders, Customers
	   WHERE Orders.customer_id = Customers.id AND Customers.region = 'north' AND Orders.amount >= 50.0`)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 50; i < 100; i++ {
		if (i%10)%2 == 0 {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	if !strings.Contains(db.Schema(), "customer_id int REFERENCES Customers HIDDEN") {
		t.Fatalf("schema = %s", db.Schema())
	}
}

func TestStrategyKnobs(t *testing.T) {
	db := patientsDB(t)
	db.SetThroughput(0.5)
	res, err := db.QueryCtx(context.Background(),
		`SELECT name FROM Patients WHERE age = 50 AND bodymassindex = 23.0`,
		WithStrategy(StrategyPreFilter), WithProjector(ProjectorBruteForce))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCreateErrors(t *testing.T) {
	if _, err := Create([]string{`SELECT 1 FROM x`}, Options{}); err == nil {
		t.Fatal("non-DDL accepted")
	}
	if _, err := Create([]string{`CREATE TABLE A (id int, f int REFERENCES B)`}, Options{}); err == nil {
		t.Fatal("dangling reference accepted")
	}
	if _, err := Create(nil, Options{}); err == nil {
		t.Fatal("empty schema accepted")
	}
	// Cycles rejected.
	_, err := Create([]string{
		`CREATE TABLE A (id int, fb int REFERENCES B)`,
		`CREATE TABLE B (id int, fa int REFERENCES A)`,
	}, Options{})
	if err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestLoaderErrors(t *testing.T) {
	db, err := Create([]string{
		`CREATE TABLE T (id int, a int, b char(3) HIDDEN)`,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Querying before load fails.
	if _, err := db.Query(`SELECT id FROM T`); err == nil {
		t.Fatal("query before load accepted")
	}
	ld := db.Loader()
	cases := []R{
		{"a": 1},                    // missing column
		{"a": 1, "b": "abcd"},       // overlong
		{"a": "x", "b": "ab"},       // type mismatch
		{"a": 1, "b": "ab", "c": 2}, // unknown column
		{"a": 1.5, "b": "ab"},       // float for int
	}
	for i, r := range cases {
		if err := ld.Append("T", r); err == nil {
			t.Fatalf("case %d accepted: %v", i, r)
		}
	}
	if err := ld.Append("Nope", R{}); err == nil {
		t.Fatal("unknown table accepted")
	}
	if err := ld.Append("T", R{"a": 1, "b": "ab"}); err != nil {
		t.Fatal(err)
	}
	if err := ld.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ld.Commit(); err == nil {
		t.Fatal("double commit accepted")
	}
	if err := ld.Append("T", R{"a": 1, "b": "ab"}); err == nil {
		t.Fatal("append after commit accepted")
	}
	// Case-insensitive keys work.
	db2, _ := Create([]string{`CREATE TABLE T (id int, a int)`}, Options{})
	ld2 := db2.Loader()
	if err := ld2.Append("T", R{"A": 7}); err != nil {
		t.Fatal(err)
	}
	if err := ld2.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := db2.Query(`SELECT a FROM T WHERE id = 0`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
		t.Fatalf("res = %v err = %v", res, err)
	}
}

func TestFKLoaderValidation(t *testing.T) {
	db, err := Create([]string{
		`CREATE TABLE P (id int, fc int REFERENCES C HIDDEN, x int)`,
		`CREATE TABLE C (id int, y int)`,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ld := db.Loader()
	if err := ld.Append("P", R{"x": 1}); err == nil {
		t.Fatal("missing fk accepted")
	}
	if err := ld.Append("P", R{"x": 1, "fc": -3}); err == nil {
		t.Fatal("negative fk accepted")
	}
	if err := ld.Append("C", R{"y": 1}); err != nil {
		t.Fatal(err)
	}
	if err := ld.Append("P", R{"x": 1, "fc": 5}); err != nil {
		t.Fatal(err) // range checked at commit/index-build time
	}
	if err := ld.Commit(); err == nil {
		t.Fatal("dangling fk survived commit")
	}
}

func TestPrepareStmtAndExplain(t *testing.T) {
	db := patientsDB(t)
	sql := `SELECT name FROM Patients WHERE age = 50 AND bodymassindex = 23.0`
	stmt, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan := stmt.Plan()
	if plan.MinBuffers < 1 || plan.MinBuffers >= 8 {
		t.Fatalf("single-table floor should be small, got %d", plan.MinBuffers)
	}
	if plan.Anchor != "Patients" {
		t.Fatalf("anchor = %q", plan.Anchor)
	}
	out := stmt.Explain()
	if !strings.Contains(out, "admission: min") || !strings.Contains(out, "estimated cost:") {
		t.Fatalf("explain output incomplete:\n%s", out)
	}
	// db.Explain is the prepare-and-render shorthand.
	out2, err := db.Explain(sql)
	if err != nil || out2 != out {
		t.Fatalf("db.Explain diverges: %v\n%s", err, out2)
	}
	// The statement runs repeatedly and matches the one-shot path, with
	// the admission floor exactly the plan's.
	want, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := stmt.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(want.Rows) {
			t.Fatalf("prepared run %d: %d rows, want %d", i, len(res.Rows), len(want.Rows))
		}
		if res.Stats.PlanMinBuffers != plan.MinBuffers {
			t.Fatalf("admission floor %d != plan floor %d", res.Stats.PlanMinBuffers, plan.MinBuffers)
		}
	}
	// Per-run options that change the plan replan for that run only.
	res, err := stmt.Run(context.Background(), WithStrategy(StrategyPreFilter), WithProjector(ProjectorBruteForce))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want.Rows) {
		t.Fatal("forced-strategy run changed the answer")
	}
	if res.Stats.Projector != ProjectorBruteForce {
		t.Fatalf("projector option ignored: %v", res.Stats.Projector)
	}
	// Preparing before load fails cleanly.
	empty, _ := Create([]string{`CREATE TABLE T (id int, a int)`}, Options{})
	if _, err := empty.Prepare(`SELECT a FROM T`); err == nil {
		t.Fatal("prepare before load accepted")
	}
}

func TestPreparedInsertFootprint(t *testing.T) {
	// An insert stages the encoded hidden record plus the table's SKT
	// row; here the two together exceed one 2KB flash buffer, so the
	// INSERT's admission floor must be 2 instead of the old hardcoded 1.
	db, err := Create([]string{
		`CREATE TABLE Blobs (id int, tag_id int REFERENCES Tags HIDDEN,
		   a char(1000) HIDDEN, b char(1000) HIDDEN, c char(45) HIDDEN)`,
		`CREATE TABLE Tags (id int, name char(10))`,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ld := db.Loader()
	if err := ld.Append("Tags", R{"name": "seed"}); err != nil {
		t.Fatal(err)
	}
	if err := ld.Append("Blobs", R{"tag_id": 0, "a": "x", "b": "y", "c": "z"}); err != nil {
		t.Fatal(err)
	}
	if err := ld.Commit(); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare(`INSERT INTO Blobs (tag_id, a, b, c) VALUES (0, 'h', 'i', 'hello')`)
	if err != nil {
		t.Fatal(err)
	}
	if got := stmt.Plan().MinBuffers; got != 2 {
		t.Fatalf("insert floor = %d, want 2 (2045B hidden record + 4B SKT row over 2048B buffers)", got)
	}
	if _, err := stmt.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Rows("Blobs"); n != 2 {
		t.Fatalf("rows = %d", n)
	}
	res, err := db.Query(`SELECT id, c FROM Blobs WHERE c = 'hello'`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("res = %v err = %v", res, err)
	}
}

func TestBloomInfeasibleSurfaced(t *testing.T) {
	db, err := Create([]string{
		`CREATE TABLE A (id int, fb int REFERENCES B HIDDEN, u char(2))`,
		`CREATE TABLE B (id int, v char(2), h char(2) HIDDEN)`,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ld := db.Loader()
	for i := 0; i < 50; i++ {
		if err := ld.Append("B", R{"v": "xx", "h": "hh"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if err := ld.Append("A", R{"fb": i % 50, "u": "uu"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.Commit(); err != nil {
		t.Fatal(err)
	}
	_, err = db.QueryCtx(context.Background(),
		`SELECT A.id FROM A, B WHERE A.fb = B.id AND B.v = 'xx' AND B.h = 'hh'`,
		WithStrategy(StrategyPostFilter))
	if !errors.Is(err, ErrBloomInfeasible) {
		t.Fatalf("err = %v", err)
	}
	res, err := db.Query(`SELECT A.id FROM A, B WHERE A.fb = B.id AND B.v = 'xx' AND B.h = 'hh'`)
	if err != nil || len(res.Rows) != 200 {
		t.Fatalf("auto fallback: %d rows, %v", len(res.Rows), err)
	}
}
