package experiments

import (
	"testing"
	"time"

	"ghostdb/internal/exec"
)

// These tests assert the *shapes* the paper reports — who wins, by
// roughly what factor, where crossovers fall — at a small scale factor.
// EXPERIMENTS.md records the full series; these keep the claims honest
// under regression.

func testLab(t *testing.T) *Lab {
	t.Helper()
	return NewLab(0.002, 1)
}

func seriesMap(fig *Figure) map[string]map[float64]Point {
	out := map[string]map[float64]Point{}
	for _, p := range fig.Points {
		if out[p.Series] == nil {
			out[p.Series] = map[float64]Point{}
		}
		out[p.Series][p.X] = p
	}
	return out
}

func TestFig7StorageOrdering(t *testing.T) {
	l := testLab(t)
	fig, err := l.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	s := seriesMap(fig)
	for k := 0.0; k <= 5; k++ {
		full := SizeMB(s["FullIndex"][k])
		basic := SizeMB(s["BasicIndex"][k])
		star := SizeMB(s["StarIndex"][k])
		join := SizeMB(s["JoinIndex"][k])
		// §6.3: Full ≈ Basic (small difference), both > Star > Join.
		if !(full >= basic) {
			t.Fatalf("k=%v: Full %.1f < Basic %.1f", k, full, basic)
		}
		if basic > 1.3*full {
			t.Fatalf("k=%v: Basic should be close to Full", k)
		}
		if k >= 1 && !(basic > star && star > join) {
			t.Fatalf("k=%v: ordering broken: basic=%.1f star=%.1f join=%.1f", k, basic, star, join)
		}
	}
	// Index cost grows with the number of indexed attributes.
	if !(SizeMB(s["FullIndex"][5]) > SizeMB(s["FullIndex"][1])) {
		t.Fatal("FullIndex not growing with k")
	}
	// DBSize constant.
	if SizeMB(s["DBSize"][0]) != SizeMB(s["DBSize"][5]) {
		t.Fatal("DBSize should be constant")
	}
	// Real dataset: index cost well below raw data size, as in the paper
	// (57MB of indexes vs 169MB of data).
	if !(SizeMB(s["medical-FullIndex"][-1]) < SizeMB(s["medical-DBSize"][-1])) {
		t.Fatal("medical FullIndex larger than the database itself")
	}
}

func TestFig8CrossBeatsPlain(t *testing.T) {
	l := testLab(t)
	fig, err := l.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	s := seriesMap(fig)
	// §6.4: "the Cross filtering optimization is beneficial whatever the
	// selectivity of the Visible selection".
	for _, sv := range SVGrid {
		pre, cpre := s["Pre-Filter"][sv], s["Cross-Pre-Filter"][sv]
		if pre.Skipped || cpre.Skipped {
			continue
		}
		if cpre.Time > pre.Time {
			t.Fatalf("sv=%v: Cross-Pre %v slower than Pre %v", sv, cpre.Time, pre.Time)
		}
	}
	// "The benefit becomes larger as this selectivity decreases":
	// at sV=0.5 the ratio must exceed the ratio at 0.01.
	r1 := float64(s["Pre-Filter"][0.01].Time) / float64(s["Cross-Pre-Filter"][0.01].Time)
	r2 := float64(s["Pre-Filter"][0.5].Time) / float64(s["Cross-Pre-Filter"][0.5].Time)
	if r2 <= r1 {
		t.Fatalf("cross benefit should grow with sv: %.2f -> %.2f", r1, r2)
	}
	// Paper reports factors around 1.8–2.3; accept a broad band.
	if r1 < 1.1 {
		t.Fatalf("Cross-Pre benefit at 0.01 only %.2fx", r1)
	}
}

func TestFig9CrossoverNearTenPercent(t *testing.T) {
	l := testLab(t)
	fig, err := l.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	s := seriesMap(fig)
	// §6.4: Cross-Pre wins at high selectivity, loses beyond sV ≈ 0.1.
	if !(s["Cross-Pre-Filter"][0.001].Time < s["Cross-Post-Filter"][0.001].Time) {
		t.Fatal("Cross-Pre should win at sV=0.001")
	}
	if !(s["Cross-Pre-Filter"][0.5].Time > s["Cross-Post-Filter"][0.5].Time) {
		t.Fatal("Cross-Post should win at sV=0.5")
	}
	// Crossover inside [0.02, 0.5].
	crossed := false
	for _, sv := range SVGrid {
		if sv < 0.02 {
			continue
		}
		if s["Cross-Pre-Filter"][sv].Time > s["Cross-Post-Filter"][sv].Time {
			crossed = true
			if sv > 0.5 {
				t.Fatalf("crossover too late: %v", sv)
			}
			break
		}
	}
	if !crossed {
		t.Fatal("no crossover found")
	}
}

func TestFig10PostStopsAtHalf(t *testing.T) {
	l := testLab(t)
	fig, err := l.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	s := seriesMap(fig)
	// Post-Filter is infeasible beyond sV = 0.5 ("the Bloom filter
	// introduces more false positives than it can eliminate").
	if !s["Post-Filter"][1.0].Skipped {
		t.Fatal("Post-Filter should be infeasible at sV=1")
	}
	if s["Post-Filter"][0.5].Skipped {
		t.Fatal("Post-Filter should still run at sV=0.5")
	}
	// Pre wins up to sV = 0.05 and Post from the next grid point on
	// (paper: "Post-Filter becomes better than Pre-Filter for values of
	// sV higher than 0.05").
	for _, sv := range []float64{0.001, 0.05} {
		if pre, post := s["Pre-Filter"][sv].Time, s["Post-Filter"][sv].Time; !(pre < post) {
			t.Fatalf("Pre should win at %v: Pre %v, Post %v", sv, pre, post)
		}
	}
	for _, sv := range []float64{0.1, 0.2} {
		if pre, post := s["Pre-Filter"][sv].Time, s["Post-Filter"][sv].Time; !(post < pre) {
			t.Fatalf("Post should win at %v: Pre %v, Post %v", sv, pre, post)
		}
	}
	// NoFilter runs at every selectivity.
	for _, sv := range SVGrid {
		if s["NoFilter"][sv].Skipped {
			t.Fatalf("NoFilter skipped at %v", sv)
		}
	}
}

// TestPlannerRegret bounds what the planner's strategy ladder costs
// against hindsight: on the Figure 8 and Figure 10 queries, at every sV
// of the grid, Auto's simulated time over the best forced strategy's
// must stay within 15% at the paper's 32-buffer grant. The 7-buffer
// floor is logged, not bounded.
func TestPlannerRegret(t *testing.T) {
	l := testLab(t)
	queries := []struct {
		name string
		sql  func(float64) string
	}{
		{"fig8", func(sv float64) string { return SynthQ(sv, 1, false) }},
		{"fig10", SynthQNoCross},
	}
	forced := []exec.Strategy{exec.StratPre, exec.StratCrossPre, exec.StratPost,
		exec.StratCrossPost, exec.StratNoFilter}
	regrets := func(db *exec.DB, buffers int, bound float64) {
		for _, q := range queries {
			name := q.name
			for _, sv := range SVGrid {
				sql := q.sql(sv)
				auto := runPoint(db, sql, exec.StratAuto, exec.ProjectBloom, "Auto", sv)
				if auto.Skipped {
					t.Fatalf("%s sV=%v @%d buffers: Auto failed: %s", name, sv, buffers, auto.Note)
				}
				var best Point
				for _, strat := range forced {
					p := runPoint(db, sql, strat, exec.ProjectBloom, strat.String(), sv)
					if !p.Skipped && (best.Series == "" || p.Time < best.Time) {
						best = p
					}
				}
				regret := float64(auto.Time) / float64(best.Time)
				t.Logf("%s sV=%v @%d buffers: Auto %v, best %s %v, regret %.2f",
					name, sv, buffers, auto.Time, best.Series, best.Time, regret)
				if bound > 0 && regret > bound {
					t.Errorf("%s sV=%v @%d buffers: regret %.2f > %.2f (Auto %v, %s %v)",
						name, sv, buffers, regret, bound, auto.Time, best.Series, best.Time)
				}
			}
		}
	}
	db, err := l.SynthDB()
	if err != nil {
		t.Fatal(err)
	}
	regrets(db, 32, 1.15)
	tight, err := l.SynthDBWithRAM(7 * 2048)
	if err != nil {
		t.Fatal(err)
	}
	regrets(tight, 7, 0)
}

func TestFig11PostSelectWorseThanBloom(t *testing.T) {
	l := testLab(t)
	fig, err := l.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	s := seriesMap(fig)
	// §6.4 justifies "why we did not consider Post-Select as a relevant
	// strategy": at moderate-to-high sV it costs more than Bloom
	// post-filtering.
	worse := 0
	for _, sv := range []float64{0.05, 0.1, 0.2, 0.5} {
		ps, pf := s["Post-Select"][sv], s["Post-Filter"][sv]
		if ps.Skipped || pf.Skipped {
			continue
		}
		if ps.Time > pf.Time {
			worse++
		}
	}
	if worse < 3 {
		t.Fatalf("Post-Select should generally lose to Post-Filter (worse at %d/4 points)", worse)
	}
}

func TestFig12ProjectBeatsBruteForce(t *testing.T) {
	l := testLab(t)
	fig, err := l.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	s := seriesMap(fig)
	// §6.5: "Project is 60% faster than Brute-Force when sV=0.1 and the
	// gap increases with sV"; NoBF sits between them at high sV.
	for _, sv := range []float64{0.1, 0.2, 0.5} {
		if !(s["Project"][sv].Time < s["Brute-Force"][sv].Time) {
			t.Fatalf("sv=%v: Project %v not faster than Brute-Force %v",
				sv, s["Project"][sv].Time, s["Brute-Force"][sv].Time)
		}
	}
	if !(s["Project"][0.5].Time <= s["Project-NoBF"][0.5].Time) {
		t.Fatal("Bloom pre-filtering should not hurt the projection")
	}
}

func TestFig13FalsePositivesInsignificant(t *testing.T) {
	l := testLab(t)
	fig12, err := l.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	fig13, err := l.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	s12, s13 := seriesMap(fig12), seriesMap(fig13)
	// §6.5: both figures "show the insignificant impact of false
	// positives": the Project curve under Cross-Post must stay in the
	// same ballpark as under Cross-Pre at moderate selectivities.
	for _, sv := range []float64{0.05, 0.1} {
		a, b := s12["Project"][sv].Time, s13["Project"][sv].Time
		if a == 0 || b == 0 {
			t.Fatalf("missing points at %v", sv)
		}
		ratio := float64(b) / float64(a)
		if ratio > 3 || ratio < 0.33 {
			t.Fatalf("sv=%v: projection cost diverges across QEPSJ strategies: %v vs %v", sv, a, b)
		}
	}
}

func TestFig14ThroughputBottleneck(t *testing.T) {
	l := testLab(t)
	fig, err := l.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	s := seriesMap(fig)
	// Total time decreases monotonically with throughput and flattens:
	// §6.6 "a communication throughput lesser than 1.3MBps becomes the
	// main bottleneck".
	for _, series := range []string{"Project1", "Project2", "Project3"} {
		prev := time.Duration(0)
		grid := []float64{0.3, 0.5, 0.8, 1.0, 1.3, 2, 3, 5, 7, 10}
		for i, mbps := range grid {
			cur := s[series][mbps].Time
			if cur == 0 {
				t.Fatalf("%s missing point at %v", series, mbps)
			}
			if i > 0 && cur > prev {
				t.Fatalf("%s: time increased with throughput at %v", series, mbps)
			}
			prev = cur
		}
		slow := s[series][0.3]
		fast := s[series][10.0]
		// Scale-independent shape: the link share collapses as the
		// throughput grows (the paper's "bottleneck below 1.3MBps" claim
		// is about absolute volume and is verified at larger scale in
		// EXPERIMENTS.md).
		if !(slow.CommTime > 10*fast.CommTime) {
			t.Fatalf("%s: comm time should scale with 1/throughput (%v vs %v)",
				series, slow.CommTime, fast.CommTime)
		}
		if slow.IOTime != fast.IOTime {
			t.Fatalf("%s: flash cost must not depend on the link", series)
		}
	}
	// More projected attributes -> more bytes -> slower at low throughput.
	if !(s["Project3"][0.3].Time > s["Project1"][0.3].Time) {
		t.Fatal("Project3 should cost more than Project1 at 0.3MBps")
	}
}

func TestFig15BreakdownComponents(t *testing.T) {
	l := testLab(t)
	fig, err := l.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig.Points {
		if p.Skipped {
			t.Fatalf("%s skipped: %s", p.Series, p.Note)
		}
		sum := time.Duration(0)
		for _, c := range []string{"Merge", "SJoin", "Store", "Project"} {
			sum += p.Breakdown[c]
		}
		if sum == 0 {
			t.Fatalf("%s: empty breakdown", p.Series)
		}
		if sum > p.IOTime {
			t.Fatalf("%s: components %v exceed total %v", p.Series, sum, p.IOTime)
		}
	}
	s := seriesMap(fig)
	// §6.7: "PRE is shown better than POST for sV=0.01 ... but becomes
	// worse for sV=0.20".
	if !(s["PRE1"][0.01].IOTime < s["POST1"][0.01].IOTime) {
		t.Fatal("PRE1 should beat POST1")
	}
	if !(s["PRE20"][0.2].IOTime > s["POST20"][0.2].IOTime) {
		t.Fatal("POST20 should beat PRE20")
	}
	// "the Merge cost is much higher in PRE20 than in POST20".
	if !(s["PRE20"][0.2].Breakdown["Merge"] > s["POST20"][0.2].Breakdown["Merge"]) {
		t.Fatal("Merge should dominate PRE20")
	}
}

func TestFig16SJoinDominatesOnMedical(t *testing.T) {
	// The SJoin-dominance claim rests on the Measurements/Patients ≈ 92
	// cardinality ratio, which needs a few hundred patients to show up;
	// run this figure at a larger scale than the other shape tests.
	l := NewLab(0.05, 1)
	fig, err := l.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	s := seriesMap(fig)
	// §6.7: "the cost of the SJoin operator is dominant in all
	// histograms" because Measurements/Patients ≈ 92.
	for _, p := range fig.Points {
		if p.Skipped {
			t.Fatalf("%s skipped: %s", p.Series, p.Note)
		}
		bd := p.Breakdown
		for _, other := range []string{"Merge", "Project"} {
			if bd["SJoin"]+bd["Store"] < bd[other] {
				t.Fatalf("%s: SJoin+Store (%v) not dominant vs %s (%v)",
					p.Series, bd["SJoin"]+bd["Store"], other, bd[other])
			}
		}
	}
	_ = s
}

func TestAblations(t *testing.T) {
	l := testLab(t)
	merge, err := l.AblationMergeReduction()
	if err != nil {
		t.Fatal(err)
	}
	// Less RAM -> more reduction passes -> more time (weakly monotone).
	var prev time.Duration
	for i, p := range merge.Points {
		if p.Skipped {
			t.Fatalf("merge ablation skipped at %v: %s", p.X, p.Note)
		}
		if i > 0 && p.Time > prev {
			t.Fatalf("more RAM should not cost more: %v at %vKB after %v", p.Time, p.X, prev)
		}
		prev = p.Time
	}
	bloomFig, err := l.AblationBloomRatio()
	if err != nil {
		t.Fatal(err)
	}
	// FPR decreases as m/n grows; m/n=8 lands near the paper's 2.4%.
	rates := map[float64]float64{}
	for _, p := range bloomFig.Points {
		rates[p.X] = p.Rate
	}
	if !(rates[2] > rates[4] && rates[4] > rates[8]) {
		t.Fatalf("bloom rates not monotone: %v", rates)
	}
	if rates[8] > 0.06 || rates[8] < 0.001 {
		t.Fatalf("m/n=8 rate %.4f far from the paper's 0.024", rates[8])
	}
	climb, err := l.AblationClimbingVsCascade()
	if err != nil {
		t.Fatal(err)
	}
	s := seriesMap(climb)
	for _, sel := range []float64{0.01, 0.05, 0.1, 0.2} {
		if !(s["climbing"][sel].Time < s["cascading"][sel].Time) {
			t.Fatalf("sel=%v: climbing (%v) should beat cascading (%v)",
				sel, s["climbing"][sel].Time, s["cascading"][sel].Time)
		}
	}
}
