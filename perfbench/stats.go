package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
)

// checker counts operations and the checks that failed on them.
type checker struct {
	attempted int
	failed    int
	msgs      []string
}

// op counts one attempted operation; a non-nil err fails it.
func (c *checker) op(err error) {
	c.attempted++
	c.fail(err)
}

// fail counts a failed check when err is non-nil. The first few messages
// are kept for the run record.
func (c *checker) fail(err error) {
	if err == nil {
		return
	}
	c.failed++
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, err.Error())
	}
}

// near reports whether x and y agree to a relative tolerance.
func near(x, y, tol float64) bool {
	return math.Abs(x-y) <= tol*(1+math.Max(math.Abs(x), math.Abs(y)))
}

// checkAllocation runs the per-result output checks: the constraints and
// ledger cross-check of Allocation.Validate, the incremental profit
// against a from-scratch recompute, and, when st is non-nil, the profit
// attribution identity.
func checkAllocation(a *alloc.Allocation, st *core.Stats) error {
	if err := a.Validate(); err != nil {
		return err
	}
	inc, full := a.ProfitBreakdown(), a.RecomputeBreakdown()
	if !near(inc.Profit, full.Profit, 1e-9) {
		return fmt.Errorf("ledger profit %v, recomputed %v", inc.Profit, full.Profit)
	}
	if st != nil {
		if !near(st.FinalProfit, inc.Profit, 1e-9) {
			return fmt.Errorf("reported profit %v, ledger %v", st.FinalProfit, inc.Profit)
		}
		// The tolerance of the solver's own attribution tests: the phase
		// deltas are differences of compensated sums, regrouped.
		if r := st.Attribution.Residual(); math.Abs(r) > 1e-6*(1+math.Abs(st.Attribution.Final)) {
			return fmt.Errorf("attribution residual %v of final %v", r, st.Attribution.Final)
		}
	}
	return nil
}

// sameBits fails when a repeat of a deterministic computation gives a
// different value.
func sameBits(what string, first, again float64) error {
	if math.Float64bits(first) != math.Float64bits(again) {
		return fmt.Errorf("%s not bit-identical across repeats: %v then %v", what, first, again)
	}
	return nil
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// memSampler samples the memory the Go runtime holds in use — mapped
// from the OS, neither free nor released back — every millisecond while
// one timed operation runs, and reports the 99th percentile of the
// samples: the level the operation stays under for all but 1% of its
// time. The single highest sample catches a GC overshoot that lasts a
// few milliseconds: on batch-exact it moved 30% (interquartile range over
// the median) between identical runs, the 99th percentile 1.6%. The
// process's resident high-water mark moved from 15 to 33 MB.
type memSampler struct {
	stop, done chan struct{}
	samples    []float64 // MB
}

func startMem() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
			{Name: "/memory/classes/heap/free:bytes"},
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			inUse := s[0].Value.Uint64() - s[1].Value.Uint64() - s[2].Value.Uint64()
			m.samples = append(m.samples, float64(inUse)/(1<<20))
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// end stops the sampler, waits for it, and returns the 99th percentile
// of its samples in MB.
func (m *memSampler) end() float64 {
	close(m.stop)
	<-m.done
	return quantile(sortedCopy(m.samples), 0.99)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage brackets a measured stretch of work: wall and CPU time, bytes
// allocated and GC cycles.
type usage struct {
	wall, cpu time.Duration
	allocMB   float64
	gcCycles  uint32
}

type usageMeter struct {
	t0   time.Time
	cpu0 time.Duration
	ms0  runtime.MemStats
}

func startUsage() *usageMeter {
	m := &usageMeter{}
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
	return m
}

func (m *usageMeter) stop() usage {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:     wall,
		cpu:      cpu,
		allocMB:  float64(ms.TotalAlloc-m.ms0.TotalAlloc) / (1 << 20),
		gcCycles: ms.NumGC - m.ms0.NumGC,
	}
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
