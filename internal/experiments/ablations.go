package experiments

import (
	"fmt"
	"math/rand"

	"ghostdb/internal/bloom"
	"ghostdb/internal/exec"
	"ghostdb/internal/metrics"
	"ghostdb/internal/store"
)

// AblationMergeReduction measures query Q under Pre-Filtering (the most
// Merge-intensive strategy) as the secure RAM budget shrinks: smaller
// budgets force more sublist-reduction passes (§3.4, alternative 1).
func (l *Lab) AblationMergeReduction() (*Figure, error) {
	fig := &Figure{Name: "ablation-merge", Title: "Merge reduction under shrinking RAM",
		XLabel: "secure RAM (KB)"}
	budgets := []int{16 << 10, 32 << 10, 64 << 10, 128 << 10}
	sql := SynthQ(0.2, 1, false)
	for _, b := range budgets {
		db, err := l.SynthDBWithRAM(b)
		if err != nil {
			return nil, err
		}
		p := runPoint(db, sql, exec.StratPre, exec.ProjectBloom, "Pre-Filter", float64(b)/1024)
		fig.Points = append(fig.Points, p)
	}
	return fig, nil
}

// AblationBloomRatio measures the false-positive rate as the m/n ratio
// degrades from 10 to 2 bits per element — the "smooth degradation" §3.4
// relies on when the id list outgrows the RAM.
func (l *Lab) AblationBloomRatio() (*Figure, error) {
	fig := &Figure{Name: "ablation-bloom", Title: "Bloom accuracy vs bits per element",
		XLabel: "m/n (bits per element)"}
	const n = 50000
	const probes = 100000
	rng := rand.New(rand.NewSource(99))
	for _, ratio := range []float64{2, 3, 4, 6, 8, 10} {
		k := int(ratio * 0.7)
		if k < 1 {
			k = 1
		}
		f := bloom.NewWithRatio(n, ratio, k)
		for i := uint32(0); i < n; i++ {
			f.Add(i)
		}
		fp := 0
		for i := 0; i < probes; i++ {
			if f.MayContain(uint32(n) + uint32(rng.Intn(1<<30))) {
				fp++
			}
		}
		rate := float64(fp) / probes
		fig.Points = append(fig.Points, Point{
			Series: "measured-FPR",
			X:      ratio,
			Rate:   rate,
			Note:   fmt.Sprintf("fpr=%.4f k=%d", rate, k),
		})
	}
	return fig, nil
}

// AblationClimbingVsCascade compares the climbing index (one lookup
// delivering anchor-level sublists directly) with the cascading
// alternative the paper rejects in §3.2: look up the selection index,
// then follow id indexes level by level, unioning as you go.
func (l *Lab) AblationClimbingVsCascade() (*Figure, error) {
	db, err := l.SynthDB()
	if err != nil {
		return nil, err
	}
	fig := &Figure{Name: "ablation-climb", Title: "Climbing index vs cascading lookups",
		XLabel: "hidden selectivity"}
	sch := db.Sch
	t12, _ := sch.Lookup("T12")
	t1, _ := sch.Lookup("T1")
	t0, _ := sch.Lookup("T0")
	_, h2, _ := t12.Column("h2")
	ci, ok := db.Cat.AttrIndex(t12.Index, h2)
	if !ok {
		return nil, fmt.Errorf("no index on T12.h2")
	}
	id12, _ := db.Cat.IDIndex(t12.Index)
	id1, _ := db.Cat.IDIndex(t1.Index)

	for _, sel := range []float64{0.01, 0.05, 0.1, 0.2} {
		hi := []byte(fmt.Sprintf("%010d", int(sel*1000)))
		// (a) Climbing: direct sublists at the T0 level.
		db.Dev.ResetCounters()
		slot0, _ := ci.LevelOf(t0.Index)
		runs, err := ci.RunsRange(nil, hi, true, false, slot0)
		if err != nil {
			return nil, err
		}
		climbIDs, err := readRuns(ci.Lists(), runs)
		if err != nil {
			return nil, err
		}
		climbTime := db.Options().Model.IOTime(sampleOf(db))

		// (b) Cascade: T12 self ids -> T1 ids -> T0 ids via id indexes.
		db.Dev.ResetCounters()
		slotSelf, _ := ci.LevelOf(t12.Index)
		selfRuns, err := ci.RunsRange(nil, hi, true, false, slotSelf)
		if err != nil {
			return nil, err
		}
		t12ids, err := readRuns(ci.Lists(), selfRuns)
		if err != nil {
			return nil, err
		}
		slot1, _ := id12.LevelOf(t1.Index)
		t1set := map[uint32]bool{}
		for id := range t12ids {
			rs, err := id12.RunsForID(id, slot1)
			if err != nil {
				return nil, err
			}
			ids, err := readRuns(id12.Lists(), rs)
			if err != nil {
				return nil, err
			}
			for x := range ids {
				t1set[x] = true
			}
		}
		slotT0, _ := id1.LevelOf(t0.Index)
		t0set := map[uint32]bool{}
		for id := range t1set {
			rs, err := id1.RunsForID(id, slotT0)
			if err != nil {
				return nil, err
			}
			ids, err := readRuns(id1.Lists(), rs)
			if err != nil {
				return nil, err
			}
			for x := range ids {
				t0set[x] = true
			}
		}
		cascadeTime := db.Options().Model.IOTime(sampleOf(db))
		if len(t0set) != len(climbIDs) {
			// The mismatched cardinalities are hidden-derived: naming them
			// in the error would put data-dependent counts in a string the
			// untrusted side can observe (trustboundary).
			return nil, fmt.Errorf("cascade disagreement: climbing and cascading selections returned different id counts")
		}
		fig.Points = append(fig.Points,
			Point{Series: "climbing", X: sel, Time: climbTime, IOTime: climbTime},
			Point{Series: "cascading", X: sel, Time: cascadeTime, IOTime: cascadeTime})
	}
	db.Dev.ResetCounters()
	return fig, nil
}

func readRuns(seg *store.ListSegment, runs []store.Run) (map[uint32]bool, error) {
	out := map[uint32]bool{}
	for _, r := range runs {
		ids, err := seg.ReadAll(r)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			out[id] = true
		}
	}
	return out, nil
}

func sampleOf(db *exec.DB) metrics.Sample {
	return metrics.Sample{Flash: db.Dev.Counters()}
}
