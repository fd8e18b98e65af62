// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): the index storage comparison (Fig 7), the filtering
// strategy sweeps (Figs 8–11), the projection algorithms (Figs 12–13),
// the communication bottleneck (Fig 14) and the per-operator cost
// decompositions on the synthetic and medical datasets (Figs 15–16), plus
// ablations for three design choices (ablations.go).
//
// Experiments run at a configurable ScaleFactor; the paper's absolute
// sizes (10M-tuple root table) correspond to SF = 1.0. Shapes — which
// strategy wins, where the crossovers fall — are scale-stable because
// every cost term is linear in the data touched.
package experiments

import (
	"context"
	"fmt"
	"time"

	"ghostdb/internal/datagen"
	"ghostdb/internal/exec"
	"ghostdb/internal/flash"
)

// SVGrid is the visible-selectivity sweep used throughout §6 (the x-axis
// of Figures 8–13, log scale).
var SVGrid = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0}

// SH is the fixed hidden selectivity of query Q (§6.4).
const SH = 0.1

// Point is one measured sample of a figure.
type Point struct {
	Series    string
	X         float64
	Time      time.Duration
	IOTime    time.Duration
	CommTime  time.Duration
	Breakdown map[string]time.Duration
	Rate      float64 // a measured ratio in place of a time (the Bloom false-positive rate)
	Skipped   bool    // e.g. Post-Filter beyond sV=0.5
	Note      string
}

// Figure is a regenerated table or figure.
type Figure struct {
	Name   string
	Title  string
	XLabel string
	Points []Point
}

// Lab caches the generated datasets and loaded databases between
// experiments.
type Lab struct {
	SF   float64
	Seed int64

	synthDS   *datagen.Dataset
	medicalDS *datagen.Dataset
	synth     *exec.DB
	medical   *exec.DB
}

// NewLab creates a lab at the given scale factor.
func NewLab(sf float64, seed int64) *Lab {
	if sf <= 0 {
		sf = 0.01
	}
	return &Lab{SF: sf, Seed: seed}
}

// flashFor sizes the device to the scale factor (lazily allocated, so a
// generous bound is fine).
func flashFor(sf float64) flash.Params {
	p := flash.DefaultParams()
	blocks := int(65536 * sf * 4)
	if blocks < 2048 {
		blocks = 2048
	}
	if blocks > 1<<18 {
		blocks = 1 << 18
	}
	p.Blocks = blocks
	return p
}

// SynthDataset returns the generated synthetic dataset (built once).
func (l *Lab) SynthDataset() (*datagen.Dataset, error) {
	if l.synthDS == nil {
		ds, err := datagen.Synthetic(l.SF, l.Seed)
		if err != nil {
			return nil, err
		}
		l.synthDS = ds
	}
	return l.synthDS, nil
}

// MedicalDataset returns the generated medical dataset (built once).
func (l *Lab) MedicalDataset() (*datagen.Dataset, error) {
	if l.medicalDS == nil {
		ds, err := datagen.Medical(l.SF, l.Seed+1)
		if err != nil {
			return nil, err
		}
		l.medicalDS = ds
	}
	return l.medicalDS, nil
}

// SynthDB returns the loaded synthetic database (built once).
func (l *Lab) SynthDB() (*exec.DB, error) {
	if l.synth != nil {
		return l.synth, nil
	}
	ds, err := l.SynthDataset()
	if err != nil {
		return nil, err
	}
	db, err := ds.NewDB(exec.Options{FlashParams: flashFor(l.SF)})
	if err != nil {
		return nil, err
	}
	l.synth = db
	return db, nil
}

// SynthDBWithRAM builds a fresh synthetic database with a custom secure
// RAM budget (not cached; used by the RAM ablation).
func (l *Lab) SynthDBWithRAM(budget int) (*exec.DB, error) {
	ds, err := l.SynthDataset()
	if err != nil {
		return nil, err
	}
	return ds.NewDB(exec.Options{FlashParams: flashFor(l.SF), RAMBudget: budget})
}

// MedicalDB returns the loaded medical database (built once).
func (l *Lab) MedicalDB() (*exec.DB, error) {
	if l.medical != nil {
		return l.medical, nil
	}
	ds, err := l.MedicalDataset()
	if err != nil {
		return nil, err
	}
	db, err := ds.NewDB(exec.Options{FlashParams: flashFor(l.SF)})
	if err != nil {
		return nil, err
	}
	l.medical = db
	return db, nil
}

// SynthQ renders query Q of §6.4: a visible selection on T1 (selectivity
// sv), a hidden selection on T12 (selectivity SH) and joins up to T0,
// projecting nProj visible attributes of T1 (plus the ids) and, when
// hidProj is set, a hidden attribute of T1 (the Figures 12–13 variant).
func SynthQ(sv float64, nProj int, hidProj bool) string {
	proj := "T0.id, T1.id, T12.id"
	for i := 1; i <= nProj && i <= 3; i++ {
		proj += fmt.Sprintf(", T1.v%d", i)
	}
	if hidProj {
		proj += ", T1.h1"
	}
	return fmt.Sprintf(`SELECT %s FROM T0, T1, T12 `+
		`WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id `+
		`AND T1.v1 < '%s' AND T12.h2 < '%s'`,
		proj, datagen.SelValue(sv), datagen.SelValue(SH))
}

// SynthQNoCross renders the Figure 10 variant: the hidden selection sits
// on T2, outside T1's subtree, so the Cross optimization cannot apply to
// the visible selection on T1.
func SynthQNoCross(sv float64) string {
	return fmt.Sprintf(`SELECT T0.id, T1.id, T2.id, T1.v1 FROM T0, T1, T2 `+
		`WHERE T0.fk1 = T1.id AND T0.fk2 = T2.id `+
		`AND T1.v1 < '%s' AND T2.h2 < '%s'`,
		datagen.SelValue(sv), datagen.SelValue(SH))
}

// MedicalQ renders query Q translated to the medical schema (§6.7):
// T0 → Measurements, T1 → Patients, T12 → Doctors.
func MedicalQ(sv float64) string {
	return fmt.Sprintf(`SELECT Measurements.id, Patients.id, Doctors.id, Patients.firstname `+
		`FROM Measurements, Patients, Doctors `+
		`WHERE Measurements.patient_id = Patients.id AND Patients.doctor_id = Doctors.id `+
		`AND Patients.zipcode < '%s' AND Doctors.name < '%s'`,
		datagen.MedicalZipSelValue(sv), datagen.SelValue(SH))
}

// runPoint executes sql under a forced strategy and projector.
func runPoint(db *exec.DB, sql string, strat exec.Strategy, proj exec.Projector, series string, x float64) Point {
	res, err := db.RunCtx(context.Background(), sql,
		exec.QueryConfig{Strategy: strat, Projector: proj})
	if err != nil {
		return Point{Series: series, X: x, Skipped: true, Note: err.Error()}
	}
	// Fold index-lookup cost into the Merge bucket: in the paper's
	// decomposition (Figure 15) the production of the sublists that Merge
	// consumes is part of the Merge cost; our engine tracks it separately
	// as "CI" (tree descents) and "Scan" (unindexed fallback). Each bar
	// prices its operator's flash I/O only.
	model := db.Options().Model
	bd := make(map[string]time.Duration, len(res.Stats.Ops))
	for _, op := range res.Stats.Ops {
		bd[op.Name] += model.IOTime(op.Sample)
	}
	bd["Merge"] += bd["CI"] + bd["Scan"]
	delete(bd, "CI")
	delete(bd, "Scan")
	return Point{
		Series:    series,
		X:         x,
		Time:      res.Stats.SimTime,
		IOTime:    res.Stats.IOTime,
		CommTime:  res.Stats.CommTime,
		Breakdown: bd,
	}
}
