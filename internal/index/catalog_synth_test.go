package index_test

import (
	"bytes"
	"testing"

	"ghostdb/internal/datagen"
	"ghostdb/internal/flash"
	"ghostdb/internal/index"
)

// hiddenInputs is the index build input exec.DB.Load derives from a
// dataset: every table with its hidden attributes.
func hiddenInputs(ds *datagen.Dataset) map[int]*index.TableInput {
	inputs := map[int]*index.TableInput{}
	for _, t := range ds.Sch.Tables {
		ld := ds.Load[t.Index]
		in := &index.TableInput{Rows: ld.Rows, FKs: ld.FKs}
		for ci, col := range t.Columns {
			if col.Hidden {
				in.Attrs = append(in.Attrs, index.AttrData{ColIdx: ci, Width: ld.Cols[ci].Width, Data: ld.Cols[ci].Data})
			}
		}
		inputs[t.Index] = in
	}
	return inputs
}

// TestBuildMatchesReference builds every variant's catalog twice, through
// the linear-time climbing-index build and through the comparison-sort
// reference, and requires the same indexes and the same flash image page
// for page. The medical dataset adds float keys and wide char keys.
func TestBuildMatchesReference(t *testing.T) {
	synth, err := datagen.Synthetic(0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	medical, err := datagen.Medical(0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, ds := range map[string]*datagen.Dataset{"synthetic": synth, "medical": medical} {
		inputs := hiddenInputs(ds)
		for _, v := range []index.Variant{index.VariantFull, index.VariantBasic, index.VariantStar, index.VariantJoin} {
			devA, devB := flash.MustDevice(flash.DefaultParams()), flash.MustDevice(flash.DefaultParams())
			a, err := index.Build(devA, ds.Sch, inputs, v)
			if err != nil {
				t.Fatal(err)
			}
			b, err := index.BuildReference(devB, ds.Sch, inputs, v)
			if err != nil {
				t.Fatal(err)
			}
			if err := index.DiffCatalogs(a, b); err != nil {
				t.Fatalf("%s %v: %v", name, v, err)
			}
			if devA.PagesUsed() != devB.PagesUsed() || devA.Counters() != devB.Counters() {
				t.Fatalf("%s %v: %d pages %+v vs %d pages %+v", name, v,
					devA.PagesUsed(), devA.Counters(), devB.PagesUsed(), devB.Counters())
			}
			pa, pb := make([]byte, devA.PageSize()), make([]byte, devB.PageSize())
			for id := 0; id < devA.PagesUsed(); id++ {
				errA, errB := devA.ReadFull(flash.PageID(id), pa), devB.ReadFull(flash.PageID(id), pb)
				if (errA == nil) != (errB == nil) || !bytes.Equal(pa, pb) {
					t.Fatalf("%s %v: page %d differs (%v, %v)", name, v, id, errA, errB)
				}
			}
		}
	}
}
