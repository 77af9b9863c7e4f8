package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// missMs is the latency recorded for a failed or mis-verified
// operation: it counts as a miss at every percentile.
const missMs = 180000

// percentile is the nearest-rank q-quantile of samples (q in [0, 1]),
// the same rule experiments.PercentileNs uses. Zero for no samples.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(float64(len(s)-1)*q+0.5)]
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

// heapSampler polls the live heap size every millisecond and keeps the
// maximum, so peak_heap_mb sees the high-water mark between GC cycles
// without stopping the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

// gcSnap is a point-in-time copy of the collector's cumulative counters.
type gcSnap struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnap{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// mallocs returns the process's cumulative heap object allocations,
// read without stopping the world.
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// interval is a closed-open span of time in nanoseconds since the
// recorder's epoch.
type interval struct{ start, end int64 }

// unionLen returns the total length covered by the intervals, each
// clipped to [lo, hi).
func unionLen(iv []interval, lo, hi int64) int64 {
	var c []interval
	for _, x := range iv {
		s, e := max(x.start, lo), min(x.end, hi)
		if e > s {
			c = append(c, interval{s, e})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].start < c[j].start })
	var total, curS, curE int64
	curS, curE = math.MinInt64, math.MinInt64
	for _, x := range c {
		if x.start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = x.start, x.end
			continue
		}
		curE = max(curE, x.end)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}
