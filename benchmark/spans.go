package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ghostdb/internal/obs"
)

// span is one recorded interval: a call from the benchmark into a layer
// (a statement, a probe), or a phase the engine's own trace reported
// inside such a call. Times are nanoseconds since the log started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Stmt   int    `json:"stmt"`   // statement ordinal, -1 for probes
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SimUs  int64  `json:"sim_us,omitempty"`
}

// spanLog keeps every span of a traced run in memory and writes them
// out when the benchmark ends.
type spanLog struct {
	t0 time.Time
	// mu serializes appends: the open-loop workload finishes statements
	// on many goroutines.
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(parent, stmt int, name string, start, end time.Time, simUs int64) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Stmt: stmt, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(), SimUs: simUs})
	return id
}

// addCall records a benchmark-side call into a layer with no engine
// trace inside it (probes, compactions).
func (l *spanLog) addCall(name string, start, end time.Time) {
	if l != nil {
		l.mu.Lock()
		l.add(-1, -1, name, start, end, 0)
		l.mu.Unlock()
	}
}

// addStatement records one traced statement: the benchmark's own span
// around the engine call, with the engine's phase spans beneath it.
// traceStart is when the obs.Trace was created (its spans carry
// microsecond offsets from that instant).
func (l *spanLog) addStatement(stmt int, kind string, start, end, traceStart time.Time, snap obs.SpanJSON) {
	l.mu.Lock()
	defer l.mu.Unlock()
	root := l.add(-1, stmt, "stmt:"+kind, start, end, 0)
	l.addChildren(root, stmt, traceStart, snap.Children)
}

// addChildren appends the engine's spans under parent. The engine opens
// its result-cache span around the whole lookup, so on a miss the plan,
// admission and exec spans it records as siblings actually ran inside
// it: a sibling whose interval lies within an earlier sibling's is
// re-parented there, which keeps self times from counting it twice.
func (l *spanLog) addChildren(parent, stmt int, traceStart time.Time, kids []obs.SpanJSON) {
	type placed struct {
		id         int
		start, end int64
	}
	var open []placed
	for _, k := range kids {
		start := traceStart.Add(time.Duration(k.StartUs) * time.Microsecond)
		end := start.Add(time.Duration(k.WallUs) * time.Microsecond)
		p := parent
		if k.WallUs > 0 {
			for _, o := range open {
				if k.StartUs >= o.start && k.StartUs+k.WallUs <= o.end {
					p = o.id
				}
			}
		}
		name := k.Name
		if k.WallUs == 0 && k.SimUs > 0 {
			name = "sim:" + k.Name // a cost-model row, not a wall interval
		}
		id := l.add(p, stmt, name, start, end, k.SimUs)
		if k.WallUs > 0 {
			open = append(open, placed{id, k.StartUs, k.StartUs + k.WallUs})
		}
		l.addChildren(id, stmt, traceStart, k.Children)
	}
}

// childIntervals maps each span id to the intervals of its children.
func (l *spanLog) childIntervals() map[int][][2]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range l.spans {
		if s.Parent >= 0 && s.End > s.Start {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	return kids
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover (overlapping
// children, such as concurrent scatter legs, are united first).
func (l *spanLog) selfTimes() map[string]time.Duration {
	kids := l.childIntervals()
	out := make(map[string]time.Duration)
	for _, s := range l.spans {
		if s.End <= s.Start {
			continue
		}
		self := s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
		out[s.Name] += time.Duration(self)
	}
	return out
}

// coverage returns the share of the traced statements' host latency
// that the engine's own phase spans account for: the union of each
// statement span's children over the statement spans' total length.
func (l *spanLog) coverage() float64 {
	kids := l.childIntervals()
	var in, total int64
	for _, s := range l.spans {
		if s.Parent < 0 && s.Stmt >= 0 {
			in += covered(kids[s.ID], s.Start, s.End)
			total += s.End - s.Start
		}
	}
	return float64(in) / float64(max(total, 1))
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, v := range iv {
		a, b := max(v[0], end), min(v[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// write stores the spans as JSON lines under dir and returns the path.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
