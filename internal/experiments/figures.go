package experiments

import (
	"fmt"
	"time"

	"ghostdb/internal/datagen"
	"ghostdb/internal/exec"
	"ghostdb/internal/flash"
	"ghostdb/internal/index"
	"ghostdb/internal/metrics"
	"ghostdb/internal/schema"
)

// Table1 returns the cost-model parameters (Table 1 of the paper).
func Table1() []string {
	m := metrics.DefaultModel()
	return []string{
		fmt.Sprintf("Communication throughput (MB/s)        Varying (default 1.5)"),
		fmt.Sprintf("Size of an ID (bytes)                  4"),
		fmt.Sprintf("Size of a page in Flash (bytes)        %d", flash.DefaultPageSize),
		fmt.Sprintf("RAM size (bytes)                       65536"),
		fmt.Sprintf("Time to read a page in Flash           %v", m.ReadPage),
		fmt.Sprintf("Time to write a page in Flash          %v", m.WritePage),
		fmt.Sprintf("Time to transfer a byte to RAM         %v", m.PerByte),
	}
}

// Fig7 measures the storage cost of the four indexation schemes as the
// number of indexed hidden attributes per table grows from 0 to 5, plus
// the constant DBSize line, in MB at the lab's scale. The medical
// dataset's sizes are appended as extra points at X = -1.
func (l *Lab) Fig7() (*Figure, error) {
	fig := &Figure{Name: "fig7", Title: "Storage cost of different indexing schemes",
		XLabel: "indexed hidden attributes per table"}
	ds, err := l.SynthDataset()
	if err != nil {
		return nil, err
	}
	dbSize := rawDBSizeMB(ds)
	variants := []index.Variant{index.VariantFull, index.VariantBasic, index.VariantStar, index.VariantJoin}
	for k := 0; k <= 5; k++ {
		for _, v := range variants {
			mb, err := indexSizeMB(ds, v, k)
			if err != nil {
				return nil, err
			}
			fig.Points = append(fig.Points, Point{Series: v.String(), X: float64(k),
				Time: time.Duration(mb * float64(time.Second))})
		}
		fig.Points = append(fig.Points, Point{Series: "DBSize", X: float64(k),
			Time: time.Duration(dbSize * float64(time.Second))})
	}
	// Real (medical) dataset sizes, as reported at the end of §6.3.
	med, err := l.MedicalDataset()
	if err != nil {
		return nil, err
	}
	for _, v := range variants {
		mb, err := indexSizeMB(med, v, 99) // all hidden attrs
		if err != nil {
			return nil, err
		}
		fig.Points = append(fig.Points, Point{Series: "medical-" + v.String(), X: -1,
			Time: time.Duration(mb * float64(time.Second))})
	}
	fig.Points = append(fig.Points, Point{Series: "medical-DBSize", X: -1,
		Time: time.Duration(rawDBSizeMB(med) * float64(time.Second))})
	return fig, nil
}

// MB is encoded in Point.Time as seconds for uniformity; helpers below.

// SizeMB extracts the MB value from a Fig7 point.
func SizeMB(p Point) float64 { return p.Time.Seconds() }

// rawDBSizeMB is the size of the raw visible+hidden data without indexes.
func rawDBSizeMB(ds *datagen.Dataset) float64 {
	total := 0
	for _, t := range ds.Sch.Tables {
		w := 4 + 4*len(t.Refs) // id + fks
		for _, c := range t.Columns {
			w += c.EncodedWidth()
		}
		total += w * ds.Load[t.Index].Rows
	}
	return float64(total) / 1e6
}

// indexSizeMB builds the index structures for a variant, restricting each
// table to its first k hidden attributes, and returns the flash footprint.
func indexSizeMB(ds *datagen.Dataset, v index.Variant, k int) (float64, error) {
	dev, err := flash.NewDevice(flashFor(1)) // lazily allocated; generous
	if err != nil {
		return 0, err
	}
	inputs := map[int]*index.TableInput{}
	for _, t := range ds.Sch.Tables {
		ld := ds.Load[t.Index]
		in := &index.TableInput{Rows: ld.Rows, FKs: ld.FKs}
		count := 0
		for ci, col := range t.Columns {
			if !col.Hidden || count >= k {
				continue
			}
			in.Attrs = append(in.Attrs, index.AttrData{ColIdx: ci, Width: col.EncodedWidth(), Data: ld.Cols[ci].Data})
			count++
		}
		inputs[t.Index] = in
	}
	cat, err := index.Build(dev, ds.Sch, inputs, v)
	if err != nil {
		return 0, err
	}
	pages := cat.Storage().Total()
	return float64(pages) * float64(dev.PageSize()) / 1e6, nil
}

// Fig8 compares Pre vs Cross-Pre and Post vs Cross-Post filtering on
// query Q as the visible selectivity varies (sH = 0.1).
func (l *Lab) Fig8() (*Figure, error) {
	return l.strategySweep("fig8", "Filtering vs Cross-Filtering", SynthQ,
		map[string]exec.Strategy{
			"Pre-Filter":        exec.StratPre,
			"Cross-Pre-Filter":  exec.StratCrossPre,
			"Post-Filter":       exec.StratPost,
			"Cross-Post-Filter": exec.StratCrossPost,
		})
}

// Fig9 compares the two Cross strategies (crossover near sV ≈ 0.1).
func (l *Lab) Fig9() (*Figure, error) {
	return l.strategySweep("fig9", "Cross-Pre vs Cross-Post", SynthQ,
		map[string]exec.Strategy{
			"Cross-Pre-Filter":  exec.StratCrossPre,
			"Cross-Post-Filter": exec.StratCrossPost,
		})
}

// Fig10 compares Pre vs Post vs NoFilter when the Cross optimization
// cannot apply (hidden selection outside the visible table's subtree).
// The Post curve stops at sV = 0.5, as in the paper.
func (l *Lab) Fig10() (*Figure, error) {
	return l.strategySweep("fig10", "Pre vs Post-Filtering (no Cross)",
		func(sv float64, _ int, _ bool) string { return SynthQNoCross(sv) },
		map[string]exec.Strategy{
			"Pre-Filter":  exec.StratPre,
			"Post-Filter": exec.StratPost,
			"NoFilter":    exec.StratNoFilter,
		})
}

// Fig11 compares Bloom post-filtering with the exact Post-Select.
func (l *Lab) Fig11() (*Figure, error) {
	return l.strategySweep("fig11", "Post-Filtering alternatives", SynthQ,
		map[string]exec.Strategy{
			"Post-Filter":       exec.StratPost,
			"Cross-Post-Filter": exec.StratCrossPost,
			"Post-Select":       exec.StratPostSelect,
			"Cross-Post-Select": exec.StratCrossPostSelect,
		})
}

func (l *Lab) strategySweep(name, title string, mkQ func(float64, int, bool) string,
	series map[string]exec.Strategy) (*Figure, error) {
	db, err := l.SynthDB()
	if err != nil {
		return nil, err
	}
	fig := &Figure{Name: name, Title: title, XLabel: "selectivity of Visible selection sV (log)"}
	for _, sv := range SVGrid {
		sql := mkQ(sv, 1, false)
		for label, strat := range series {
			fig.Points = append(fig.Points, runPoint(db, sql, strat, exec.ProjectBloom, label, sv))
		}
	}
	return fig, nil
}

// Fig12 compares the three projection algorithms under a Cross-Pre QEPSJ
// (query Q augmented with a projection on T1.h1).
func (l *Lab) Fig12() (*Figure, error) {
	return l.projectionSweep("fig12", "Projecting in Cross-Pre-Filtering execution", exec.StratCrossPre)
}

// Fig13 is Fig12 under a Cross-Post QEPSJ: Bloom false positives are
// present and must be eliminated by the projection.
func (l *Lab) Fig13() (*Figure, error) {
	return l.projectionSweep("fig13", "Projecting in Cross-Post-Filtering execution", exec.StratCrossPost)
}

func (l *Lab) projectionSweep(name, title string, strat exec.Strategy) (*Figure, error) {
	db, err := l.SynthDB()
	if err != nil {
		return nil, err
	}
	fig := &Figure{Name: name, Title: title, XLabel: "selectivity of Visible selection sV (log)"}
	projectors := map[string]exec.Projector{
		"Project":      exec.ProjectBloom,
		"Project-NoBF": exec.ProjectNoBF,
		"Brute-Force":  exec.ProjectBruteForce,
	}
	for _, sv := range SVGrid {
		sql := SynthQ(sv, 1, true)
		for label, proj := range projectors {
			fig.Points = append(fig.Points, runPoint(db, sql, strat, proj, label, sv))
		}
	}
	return fig, nil
}

// Fig14 sweeps the link throughput from 0.3 to 10 MBps for query Q with
// one, two or three projected visible attributes (sV = 0.01, Cross-Pre):
// below ≈1.3 MBps the link becomes the bottleneck.
func (l *Lab) Fig14() (*Figure, error) {
	db, err := l.SynthDB()
	if err != nil {
		return nil, err
	}
	fig := &Figure{Name: "fig14", Title: "Impact of the communication throughput", XLabel: "throughput (MBps)"}
	grid := []float64{0.3, 0.5, 0.8, 1.0, 1.3, 2, 3, 5, 7, 10}
	for nProj := 1; nProj <= 3; nProj++ {
		sql := SynthQ(0.01, nProj, false)
		for _, mbps := range grid {
			db.SetThroughput(mbps)
			p := runPoint(db, sql, exec.StratCrossPre, exec.ProjectBloom,
				fmt.Sprintf("Project%d", nProj), mbps)
			fig.Points = append(fig.Points, p)
		}
	}
	db.SetThroughput(0) // restore default? 0 is ignored by bus
	db.SetThroughput(1.5)
	return fig, nil
}

// CostBars is a Figure whose points carry the per-operator decomposition
// (Merge / SJoin / Store / Project) for PRE / POST runs at three
// selectivities — Figures 15 (synthetic) and 16 (medical).
func (l *Lab) Fig15() (*Figure, error) {
	db, err := l.SynthDB()
	if err != nil {
		return nil, err
	}
	return costBars(db, "fig15", "Cost decomposition, synthetic dataset", func(sv float64) string {
		return SynthQ(sv, 1, false)
	})
}

// Fig16 is the cost decomposition on the medical dataset, where the
// Measurements/Patients ≈ 92 ratio makes SJoin dominate.
func (l *Lab) Fig16() (*Figure, error) {
	db, err := l.MedicalDB()
	if err != nil {
		return nil, err
	}
	return costBars(db, "fig16", "Cost decomposition, medical dataset", MedicalQ)
}

func costBars(db *exec.DB, name, title string, mkQ func(float64) string) (*Figure, error) {
	fig := &Figure{Name: name, Title: title, XLabel: "strategy / sV"}
	cases := []struct {
		label string
		strat exec.Strategy
		sv    float64
	}{
		{"PRE1", exec.StratCrossPre, 0.01},
		{"POST1", exec.StratCrossPost, 0.01},
		{"PRE5", exec.StratCrossPre, 0.05},
		{"POST5", exec.StratCrossPost, 0.05},
		{"PRE20", exec.StratCrossPre, 0.2},
		{"POST20", exec.StratCrossPost, 0.2},
	}
	for _, c := range cases {
		p := runPoint(db, mkQ(c.sv), c.strat, exec.ProjectBloom, c.label, c.sv)
		fig.Points = append(fig.Points, p)
	}
	return fig, nil
}

// All runs every figure (the bench harness and the CLI share this list).
func (l *Lab) All() ([]*Figure, error) {
	type fn struct {
		name string
		f    func() (*Figure, error)
	}
	fns := []fn{
		{"fig7", l.Fig7}, {"fig8", l.Fig8}, {"fig9", l.Fig9}, {"fig10", l.Fig10},
		{"fig11", l.Fig11}, {"fig12", l.Fig12}, {"fig13", l.Fig13},
		{"fig14", l.Fig14}, {"fig15", l.Fig15}, {"fig16", l.Fig16},
	}
	var out []*Figure
	for _, f := range fns {
		fig, err := f.f()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		out = append(out, fig)
	}
	return out, nil
}

var _ = schema.IDWidth
