package datagen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"ghostdb/internal/schema"
)

func TestSyntheticCardinalityRatios(t *testing.T) {
	cards := SyntheticCardinalities(0.01)
	if cards["T0"] != 100_000 || cards["T1"] != 10_000 || cards["T11"] != 1000 {
		t.Fatalf("cards = %v", cards)
	}
	// Floors keep tiny scales usable.
	tiny := SyntheticCardinalities(0.00001)
	for n, v := range tiny {
		if v < 20 {
			t.Fatalf("%s floor broken: %d", n, v)
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a, err := Synthetic(0.0005, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(0.0005, 7)
	if err != nil {
		t.Fatal(err)
	}
	ta := a.Sch.Tables[0]
	la, lb := a.Load[ta.Index], b.Load[ta.Index]
	if la.Rows != lb.Rows {
		t.Fatalf("row mismatch")
	}
	for ci := range la.Cols {
		if string(la.Cols[ci].Data) != string(lb.Cols[ci].Data) {
			t.Fatalf("column %d differs between runs", ci)
		}
	}
	c, err := Synthetic(0.0005, 8)
	if err != nil {
		t.Fatal(err)
	}
	if string(c.Load[ta.Index].Cols[0].Data) == string(la.Cols[0].Data) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSelValueGranularity(t *testing.T) {
	if SelValue(0.1) != "0000000100" || SelValue(0) != "0000000000" || SelValue(2) != "0000001000" {
		t.Fatalf("SelValue: %q %q %q", SelValue(0.1), SelValue(0), SelValue(2))
	}
	if PadValue(42) != "0000000042" {
		t.Fatalf("PadValue = %q", PadValue(42))
	}
}

func TestPadValueMatchesSprintf(t *testing.T) {
	vs := []int{-1, -42, -999999999, -1000000000, math.MinInt, 9999999999, 10000000000, 12345678901, math.MaxInt}
	for v := 0; v <= Domain; v++ {
		vs = append(vs, v)
	}
	for _, v := range vs {
		if got, want := PadValue(v), fmt.Sprintf("%0*d", PadWidth, v); got != want {
			t.Fatalf("PadValue(%d) = %q, want %q", v, got, want)
		}
	}
}

// TestSyntheticBytesPinned pins the generated synthetic dataset: every
// column's bytes and every foreign key of Synthetic(0.002, 1). Figures,
// the golden counter ledger and the benchmark all load this generator's
// output, so a change to it must be deliberate.
func TestSyntheticBytesPinned(t *testing.T) {
	ds, err := Synthetic(0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, tb := range ds.Sch.Tables {
		ld := ds.Load[tb.Index]
		binary.Write(h, binary.BigEndian, uint64(ld.Rows))
		for _, c := range ld.Cols {
			h.Write(c.Data)
		}
		for _, ci := range tb.Children() {
			binary.Write(h, binary.BigEndian, ld.FKs[ci])
		}
	}
	const want = "b4e57b3be2a1ec79c9b22a6bfe6b413b08ab5c3d3bd4b283d3794d59722972e0"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("Synthetic(0.002, 1) hashes to %s, want %s", got, want)
	}
}

func TestSyntheticSelectivityApproximation(t *testing.T) {
	ds, err := Synthetic(0.001, 3)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := ds.Sch.Lookup("T1")
	ld := ds.Load[t1.Index]
	_, v1, _ := t1.Column("v1")
	w := t1.Columns[v1].EncodedWidth()
	threshold := SelValue(0.2)
	count := 0
	for i := 0; i < ld.Rows; i++ {
		v, err := schema.DecodeValue(ld.Cols[v1].Data[i*w:(i+1)*w], schema.KindChar)
		if err != nil {
			t.Fatal(err)
		}
		if v.S < threshold {
			count++
		}
	}
	got := float64(count) / float64(ld.Rows)
	if got < 0.15 || got > 0.25 {
		t.Fatalf("selectivity %.3f for target 0.2 (n=%d)", got, ld.Rows)
	}
}

func TestRefEngineRoundTrip(t *testing.T) {
	synth, err := Synthetic(0.0003, 5)
	if err != nil {
		t.Fatal(err)
	}
	medical, err := Medical(0.001, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []*Dataset{synth, medical} {
		re, err := ds.RefEngine()
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range ds.Sch.Tables {
			ld := ds.Load[tb.Index]
			if re.Rows(tb.Index) != ld.Rows {
				t.Fatalf("%s: %d vs %d rows", tb.Name, re.Rows(tb.Index), ld.Rows)
			}
			// Every value the oracle holds is the decoded load value.
			cols := []string{tb.Name + ".id"}
			for _, col := range tb.Columns {
				cols = append(cols, tb.Name+"."+col.Name)
			}
			rows := refRows(t, ds, re, "SELECT "+strings.Join(cols, ", ")+" FROM "+tb.Name)
			if len(rows) != ld.Rows {
				t.Fatalf("%s: oracle returned %d of %d rows", tb.Name, len(rows), ld.Rows)
			}
			for _, row := range rows {
				id := int(row[0].I)
				for ci, col := range tb.Columns {
					w := col.EncodedWidth()
					want, err := schema.DecodeValue(ld.Cols[ci].Data[id*w:(id+1)*w], col.Kind)
					if err != nil {
						t.Fatal(err)
					}
					if !row[ci+1].Equal(want) {
						t.Fatalf("%s row %d %s: oracle %v, load %v", tb.Name, id, col.Name, row[ci+1], want)
					}
				}
			}
		}
	}
}

func TestMedicalShape(t *testing.T) {
	ds, err := Medical(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Sch.Root().Name != "Measurements" {
		t.Fatalf("medical root = %s", ds.Sch.Root().Name)
	}
	m := ds.Rows["Measurements"]
	p := ds.Rows["Patients"]
	ratio := float64(m) / float64(p)
	// The paper's Measurements/Patients ≈ 92 drives Figure 16.
	if ratio < 60 || ratio > 120 {
		t.Fatalf("measurements/patients = %.1f", ratio)
	}
	// All fks hidden per the design guideline.
	for _, tb := range ds.Sch.Tables {
		for _, r := range tb.Refs {
			if !r.Hidden {
				t.Fatalf("%s.%s is a visible fk", tb.Name, r.FKColumn)
			}
		}
	}
	// Patients hidden identifying columns.
	pats, _ := ds.Sch.Lookup("Patients")
	for _, name := range []string{"name", "ssn", "address", "birthdate", "bodymassindex"} {
		col, _, ok := pats.Column(name)
		if !ok || !col.Hidden {
			t.Fatalf("Patients.%s should be hidden", name)
		}
	}
	for _, name := range []string{"firstname", "age", "sexe", "city", "zipcode"} {
		col, _, ok := pats.Column(name)
		if !ok || col.Hidden {
			t.Fatalf("Patients.%s should be visible", name)
		}
	}
}

func TestMedicalQueryable(t *testing.T) {
	ds, err := Medical(0.002, 2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := ds.NewDB(defaultTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	re, err := ds.RefEngine()
	if err != nil {
		t.Fatal(err)
	}
	sql := `SELECT Measurements.id, Patients.id FROM Measurements, Patients ` +
		`WHERE Measurements.patient_id = Patients.id AND Patients.bodymassindex > 30.0 ` +
		`AND Measurements.time >= '2006-06-01'`
	res, err := db.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	want := refRows(t, ds, re, sql)
	if len(res.Rows) != len(want) {
		t.Fatalf("rows %d vs ref %d", len(res.Rows), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if !res.Rows[i][j].Equal(want[i][j]) {
				t.Fatalf("row %d mismatch: %v vs %v", i, res.Rows[i], want[i])
			}
		}
	}
}
