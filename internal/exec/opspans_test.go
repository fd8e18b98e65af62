package exec

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"ghostdb/internal/metrics"
)

// The counter ledger pins each statement's totals, so it would pass a
// change that moves I/O from one operator to another: a Merge page read
// billed to SJoin, a Store write billed to BF. Figures 15 and 16 plot
// exactly that attribution, so it has its own oracle: every cost span's
// sample, in the order the collector first completed the spans, for the
// ledger's paperq set and random corpus at the 32- and 7-buffer grants
// (the 7-buffer grant runs the shared-stage Store). The file was recorded
// before the QEPSJ pipeline opened its spans per batch instead of per
// tuple; regenerate it with `go test ./internal/exec -run
// TestOperatorSpansPinned -update` only when the attribution is meant to
// change.

const spansGoldenPath = "testdata/operator_spans_golden.json"

// spanSample is one cost span's accumulated activity: the counters of a
// metrics.Sample as page reads, page writes, block erases, bytes to RAM,
// GC page moves, bus bytes down and bus bytes up.
type spanSample struct {
	Op string    `json:"op"`
	N  [7]uint64 `json:"n"`
}

// spanSection is one corpus at one grant; a failed statement has no
// spans.
type spanSection struct {
	Corpus     string         `json:"corpus"`
	Buffers    int            `json:"buffers"`
	Statements [][]spanSample `json:"statements"`
}

// operatorSpans lists the cost spans of the sessions behind st.
func operatorSpans(st Stats) []spanSample {
	var out []spanSample
	for _, op := range st.Ops {
		s := op.Sample
		out = append(out, spanSample{Op: op.Name, N: [7]uint64{
			s.Flash.PageReads, s.Flash.PageWrites, s.Flash.BlockErases,
			s.Flash.BytesToRAM, s.Flash.GCPageMoves, s.BusDown, s.BusUp}})
	}
	return out
}

func TestOperatorSpansPinned(t *testing.T) {
	_, got := recordGolden(t, nil)
	if *updateGolden {
		var b strings.Builder
		b.WriteString("[\n")
		for i, sec := range got {
			fmt.Fprintf(&b, " {\"corpus\": %q, \"buffers\": %d, \"statements\": [\n", sec.Corpus, sec.Buffers)
			for j, spans := range sec.Statements {
				line, err := json.Marshal(spans)
				if err != nil {
					t.Fatal(err)
				}
				b.WriteString("  " + string(line))
				if j < len(sec.Statements)-1 {
					b.WriteString(",")
				}
				b.WriteString("\n")
			}
			b.WriteString(" ]}")
			if i < len(got)-1 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		b.WriteString("]\n")
		if err := os.WriteFile(spansGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(spansGoldenPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	var want []spanSection
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d sections, golden has %d", len(got), len(want))
	}
	for i, sec := range got {
		w := want[i]
		if sec.Corpus != w.Corpus || sec.Buffers != w.Buffers || len(sec.Statements) != len(w.Statements) {
			t.Fatalf("section %d is %s@%d with %d statements, golden has %s@%d with %d",
				i, sec.Corpus, sec.Buffers, len(sec.Statements), w.Corpus, w.Buffers, len(w.Statements))
		}
		for j, spans := range sec.Statements {
			if !slices.Equal(spans, w.Statements[j]) {
				t.Errorf("%s @%d buffers, statement %d: spans differ\n got  %v\n want %v",
					sec.Corpus, sec.Buffers, j, spans, w.Statements[j])
			}
		}
	}
}

// TestOpsConserveCounters is the conservation law behind Figures 15 and
// 16: every page read, page write, erase and bus byte of a metered
// statement happens inside exactly one operator span, so the operators'
// samples add up to the statement's counters field by field and their
// simulated times to its SimTime (within the 1 ns per operator that
// rounding each one to whole nanoseconds can lose). It covers every
// metered statement of every ledger section and grant, compactions
// included.
func TestOpsConserveCounters(t *testing.T) {
	recordGolden(t, func(corpus string, buffers int, sql string, st Stats) {
		var sum metrics.Sample
		var sim time.Duration
		for _, op := range st.Ops {
			sum = sum.Add(op.Sample)
			sim += op.Sim
		}
		total := metrics.Sample{Flash: st.Flash, BusDown: st.BusDown, BusUp: st.BusUp}
		if sum != total {
			t.Errorf("%s @%d %s: operators sum to %+v, statement counted %+v", corpus, buffers, sql, sum, total)
		}
		if d := sim - st.SimTime; d > time.Duration(len(st.Ops)) || -d > time.Duration(len(st.Ops)) {
			t.Errorf("%s @%d %s: operators sum to %v, SimTime is %v", corpus, buffers, sql, sim, st.SimTime)
		}
	})
}
