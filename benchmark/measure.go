package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of an ascending sample by the
// nearest-rank rule (exact order statistics, no bucketing: the
// obs.Histogram's factor-2 buckets would hide any change under 2x).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func p99(v []float64) float64 { return quantile(sortedCopy(v), 0.99) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// heapSampler records HeapInuse at a fixed period.
type heapSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	mu      sync.Mutex
	samples []float64 // MB
}

// startHeapSampler samples runtime.MemStats.HeapInuse every period
// until Stop. ReadMemStats stops the world for a few tens of
// microseconds; at 100 ms that is below the timer noise of the host.
func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.sample()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.mu.Lock()
	h.samples = append(h.samples, float64(ms.HeapInuse)/(1<<20))
	h.mu.Unlock()
}

// Stop ends sampling (after one last sample) and returns the samples in
// ascending order.
func (h *heapSampler) Stop() []float64 {
	close(h.stop)
	h.done.Wait()
	h.sample()
	sort.Float64s(h.samples)
	return h.samples
}

// hostUsage is a snapshot of the process-wide cost counters the
// end-to-end metrics difference over the timed section.
type hostUsage struct {
	at         time.Time
	cpu        time.Duration // user + system
	allocBytes uint64
	mallocs    uint64
}

func readHostUsage() hostUsage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return hostUsage{at: time.Now(), cpu: cpu, allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs}
}

// heapSys is the warm-up rule's stability probe: the heap the runtime
// has obtained from the OS stops growing once the working set has been
// reached, whereas HeapInuse swings with every collection cycle.
func heapSys() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapSys
}
