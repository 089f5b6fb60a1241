package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// class splits operations for the latency metrics.
type class uint8

const (
	classLookup class = iota
	classUpdate
)

// instance is one built workload: a dictionary stack plus the
// benchmark-side model its answers are checked against.
type instance interface {
	// op runs operation i of client c and reports its latency class, its
	// modeled parallel-I/O cost, and whether the answer matched the model.
	op(c, i int) (cl class, steps int64, good bool)
	// modeledSteps is the stack's cumulative parallel-I/O step count.
	modeledSteps() int64
	// worstOpSteps is the worst single-op cost the stack itself reports,
	// or 0 when the op tokens are the only source.
	worstOpSteps() int64
	// space reports the machine bytes held and the user bytes stored.
	space() (stored, user float64)
	close()
}

// passer is implemented by workloads that replay a fixed pass on a fresh
// structure: their modeled counts then repeat exactly.
type passer interface {
	beginPass()
}

// finisher is implemented by stacks that must release a client parked
// on a partial admission window once its partner stops.
type finisher interface {
	drain(othersRunning func() bool)
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	ops, failed int64
	wall        time.Duration
	lat         [2][]int64 // per class: latency, nanoseconds
	ends        [2][]int64 // per class: completion time since start, aligned with lat
	maxSteps    int64
	steps       int64 // modeled steps spent in the phase
	allocBytes  uint64
	allocs      uint64
	gcCycles    uint32
	gcCPUFrac   float64
}

// runLoop runs clients closed-loop clients against in until the
// deadline: each client sends its next operation when the previous one
// returns. Pass-based workloads (pass > 0) stop only at a pass boundary,
// so every pass completes. maxOps > 0 instead stops each client after
// that many operations.
func runLoop(in instance, clients, pass int, dur time.Duration, maxOps int) loopResult {
	var res loopResult
	type clientLog struct {
		lat, ends       [2][]int64
		ops, failed, mx int64
	}
	logs := make([]clientLog, clients)
	hint := int(dur.Seconds()*60000) + 1024
	for c := range logs {
		for k, n := range [2]int{hint, hint / 4} {
			logs[c].lat[k] = make([]int64, 0, n)
			logs[c].ends[k] = make([]int64, 0, n)
		}
	}
	var running atomic.Int32
	running.Store(int32(clients))
	othersRunning := func() bool { return running.Load() > 0 }

	steps0 := in.modeledSteps()
	gc0 := gcCPU()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lg := &logs[c]
			for i := 0; ; i++ {
				if maxOps > 0 {
					if i == maxOps {
						break
					}
				} else if (pass == 0 || i%pass == 0) && i > 0 && time.Now().After(deadline) {
					break
				}
				if p, ok := in.(passer); ok && pass > 0 && i%pass == 0 {
					p.beginPass()
				}
				t0 := time.Now()
				cl, steps, good := in.op(c, i)
				t1 := time.Now()
				lg.lat[cl] = append(lg.lat[cl], int64(t1.Sub(t0)))
				lg.ends[cl] = append(lg.ends[cl], int64(t1.Sub(start)))
				lg.ops++
				if !good {
					lg.failed++
				}
				if steps > lg.mx {
					lg.mx = steps
				}
			}
			running.Add(-1)
			if f, ok := in.(finisher); ok {
				f.drain(othersRunning)
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	gc1 := gcCPU()
	res.steps = in.modeledSteps() - steps0
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.allocs = ms1.Mallocs - ms0.Mallocs
	res.gcCycles = ms1.NumGC - ms0.NumGC
	if d := gc1.total - gc0.total; d > 0 {
		res.gcCPUFrac = (gc1.gc - gc0.gc) / d
	}
	for c := range logs {
		lg := &logs[c]
		res.ops += lg.ops
		res.failed += lg.failed
		if lg.mx > res.maxSteps {
			res.maxSteps = lg.mx
		}
		for k := range lg.lat {
			res.lat[k] = append(res.lat[k], lg.lat[k]...)
			res.ends[k] = append(res.ends[k], lg.ends[k]...)
		}
	}
	return res
}

// segments is how many equal slices of a timed phase the robust
// statistics are taken over: each slice yields its own figure and the
// run reports their median, so a burst of load from outside the
// benchmark moves one slice, not the result.
const segments = 10

// segmentOf returns which of n equal slices of wall the instant t is in.
func segmentOf(t int64, wall time.Duration, n int) int {
	s := int(t * int64(n) / max(1, int64(wall)))
	return min(max(s, 0), n-1)
}

// rate is operations completed per second. A time-based phase (pass 0)
// reports the median over segments; a pass-based phase grows its
// structure as it goes, so its slices are not alike and it reports the
// whole pass.
func (r loopResult) rate(pass int) float64 {
	if pass > 0 {
		return float64(r.ops) / r.wall.Seconds()
	}
	return r.segRate()
}

// quantile is class k's q-quantile latency in nanoseconds: the median
// over segments for a time-based phase, over the whole pass otherwise.
func (r loopResult) quantile(k class, q float64, pass int) float64 {
	if pass > 0 {
		return quantile(sortedInt64(append([]int64(nil), r.lat[k]...)), q)
	}
	return r.segQuantile(k, q)
}

// segRate is the median over segments of operations completed per
// second.
func (r loopResult) segRate() float64 {
	counts := make([]float64, segments)
	for k := range r.ends {
		for _, t := range r.ends[k] {
			counts[segmentOf(t, r.wall, segments)]++
		}
	}
	for i := range counts {
		counts[i] /= r.wall.Seconds() / segments
	}
	return median(counts)
}

// segQuantile is the median over segments of class k's q-quantile
// latency, in nanoseconds.
func (r loopResult) segQuantile(k class, q float64) float64 {
	buckets := make([][]int64, segments)
	for i, t := range r.ends[k] {
		s := segmentOf(t, r.wall, segments)
		buckets[s] = append(buckets[s], r.lat[k][i])
	}
	return medianQuantile(buckets, q)
}

func medianQuantile(buckets [][]int64, q float64) float64 {
	var qs []float64
	for _, b := range buckets {
		if len(b) > 0 {
			qs = append(qs, quantile(sortedInt64(b), q))
		}
	}
	if len(qs) == 0 {
		return 0
	}
	return median(qs)
}

func sortedInt64(xs []int64) []int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs
}

// meanNs is the mean of all the given latencies.
func meanNs(lats ...[]int64) float64 {
	var sum float64
	n := 0
	for _, l := range lats {
		for _, v := range l {
			sum += float64(v)
		}
		n += len(l)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks, or 0 for an empty sample.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

type gcSample struct{ gc, total float64 }

// gcCPU reads the runtime's cumulative GC and total CPU-seconds
// estimates.
func gcCPU() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out gcSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.total = s[1].Value.Float64()
	}
	return out
}

func heapInuseMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}
