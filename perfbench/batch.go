package main

import (
	"context"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/experiment"
	"repro/internal/model"
	"repro/internal/workload"
)

// solverConfig gives a batch workload's solver settings for a seed and a
// cluster count.
type solverConfig func(seed int64, clusters int) core.Config

// exactConfig is the default `cloudalloc solve` path: three greedy
// starts, the paper's α grid, the exact cluster scan, no shards, and
// Workers = GOMAXPROCS.
func exactConfig(seed int64, _ int) core.Config {
	c := core.DefaultConfig()
	c.Seed = seed
	return c
}

// shardedConfig is the scale-mode solver of the SCALE experiment
// (internal/experiment): one start, one round, its coarser α grid, top-k
// candidates, and one shard per ShardClusters clusters.
func shardedConfig(seed int64, clusters int) core.Config {
	e := experiment.DefaultScaleExpConfig()
	c := core.DefaultConfig()
	c.Seed = seed
	c.NumInitSolutions = 1
	c.MaxLocalSearchIters = 1
	c.AlphaGranularity = e.AlphaGranularity
	c.CandidateClusters = e.CandidateClusters
	c.Shards = max(clusters/e.ShardClusters, 1)
	return c
}

// batchSetup generates a batch workload's scenario and builds its solver.
func batchSetup(r *runner, conf solverConfig) (*model.Scenario, *core.Solver, error) {
	scen, err := workload.Generate(workload.ScaleConfig(r.shape.clients, r.opts.instance))
	if err != nil {
		return nil, nil, err
	}
	s, err := core.NewSolver(scen, conf(r.opts.instance, scen.Cloud.NumClusters()))
	if err != nil {
		return nil, nil, err
	}
	return scen, s, nil
}

// setupReps is how many times a run builds its inputs and system; setup_s
// is the median.
const setupReps = 31

// repeatSetup runs build setupReps times and records setup_s. It keeps
// what the last call built.
func repeatSetup(r *runner, build func() error) error {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return err
		}
		ts = append(ts, seconds(time.Since(t0)))
	}
	r.set("setup_s", "s", median(ts), len(ts))
	r.series("setup_s", ts)
	return nil
}

// minSolves is the fewest timed solves (or stream replays) a run
// measures, however long they take: two, so that every run checks that
// a repeat gives a bit-identical result.
const minSolves = 2

// batchE2E measures a batch workload: set-up, one untimed warm-up solve,
// then timed solves of the same scenario until the run's time is up.
// Every solve is checked, and all must give the same profit.
func batchE2E(conf solverConfig) func(ctx context.Context, r *runner) error {
	return func(ctx context.Context, r *runner) error {
		var scen *model.Scenario
		var s *core.Solver
		if err := repeatSetup(r, func() (err error) {
			scen, s, err = batchSetup(r, conf)
			return err
		}); err != nil {
			return err
		}
		first, firstStats, err := s.SolveCtx(ctx)
		if err != nil {
			return err
		}
		r.chk.op(checkAllocation(first, &firstStats))
		var times, peaks []float64
		var last time.Duration
		for start := time.Now(); r.more(start, len(times), minSolves, last); {
			runtime.GC()
			mem := startMem()
			t0 := time.Now()
			a, st, err := s.SolveCtx(ctx)
			last = time.Since(t0)
			peaks = append(peaks, mem.end())
			times = append(times, seconds(last))
			if err != nil {
				return err
			}
			r.chk.op(checkAllocation(a, &st))
			r.chk.fail(sameBits("profit", firstStats.FinalProfit, st.FinalProfit))
		}
		// The caller gets every placement when the solve returns, so a
		// client's decision takes the whole solve, spread over the clients.
		n := float64(scen.NumClients())
		med := median(times)
		slowest := sortedCopy(times)[len(times)-1]
		r.set("solve_s", "s", med, len(times))
		r.series("solve_s", times)
		r.set("events_per_s", "1/s", n/med, len(times))
		r.set("decide_p50_us", "us", med/n*1e6, len(times))
		r.set("decide_p99_us", "us", slowest/n*1e6, len(times))
		r.set("peak_rss_mb", "MB", median(peaks), len(peaks))
		r.set("profit", "profit", firstStats.FinalProfit, 0)
		// A batch solve is served as planned: the profit the allocation
		// realizes at the clients' agreed rates, and its share of the
		// solver's planned profit.
		served, _ := epoch.Realize(scen, first)
		r.set("served_profit", "profit", served, 0)
		r.set("retention", "ratio", served/firstStats.FinalProfit, 0)
		return nil
	}
}

// batchTrace is the traced run of a batch workload: a warm-up solve, the
// solve without and with its span, the W=1 solve, then the per-layer
// probes on the solved allocation.
func batchTrace(conf solverConfig) func(ctx context.Context, r *runner) error {
	return func(ctx context.Context, r *runner) error {
		t0 := time.Now()
		sp := r.tr.root("workload.generate")
		scen, err := workload.Generate(workload.ScaleConfig(r.shape.clients, r.opts.instance))
		sp.end()
		if err != nil {
			return err
		}
		r.set("workload.generate_s", "s", seconds(time.Since(t0)), 0)
		cfg := conf(r.opts.instance, scen.Cloud.NumClusters())
		s, err := core.NewSolver(scen, cfg)
		if err != nil {
			return err
		}

		// A warm-up solve, then an untraced one: the base of
		// trace.overhead_frac and the W=GOMAXPROCS side of the speedup.
		a, st, err := s.SolveCtx(ctx)
		r.chk.op(err)
		if err != nil {
			return err
		}
		r.chk.fail(checkAllocation(a, &st))
		runtime.GC()
		m := startUsage()
		ua, ust, err := s.SolveCtx(ctx)
		u := m.stop()
		r.chk.op(err)
		if err != nil {
			return err
		}
		r.chk.fail(checkAllocation(ua, &ust))
		r.chk.fail(sameBits("profit", st.FinalProfit, ust.FinalProfit))
		r.set("parallel.cpu_per_wall", "ratio", seconds(u.cpu)/seconds(u.wall), 0)
		r.set("runtime.alloc_mb_per_op", "MB", u.allocMB, 1)
		r.set("runtime.gc_cycles_per_op", "count", float64(u.gcCycles), 1)

		// Traced solve: the same call inside its span.
		runtime.GC()
		sp = r.tr.root("core.solve")
		ta, tst, err := s.SolveCtx(ctx)
		traced := sp.end()
		r.chk.op(err)
		if err != nil {
			return err
		}
		r.chk.fail(checkAllocation(ta, &tst))
		r.chk.fail(sameBits("profit", st.FinalProfit, tst.FinalProfit))
		r.set("trace.overhead_frac", "frac", seconds(traced)/seconds(u.wall)-1, 0)
		r.set("core.solve_wall_s", "s", seconds(traced), 0)
		setPhases(r, tst)

		// W=1: bit-identical profit, and the fan-out's speedup.
		c1 := cfg
		c1.Workers = 1
		s1, err := core.NewSolver(scen, c1)
		if err != nil {
			return err
		}
		runtime.GC()
		sp = r.tr.root("core.solve_w1")
		a1, st1, err := s1.SolveCtx(ctx)
		w1 := sp.end()
		r.chk.op(err)
		if err != nil {
			return err
		}
		r.chk.fail(checkAllocation(a1, &st1))
		r.chk.fail(sameBits("W=1 vs W=GOMAXPROCS profit", st.FinalProfit, st1.FinalProfit))
		r.set("parallel.speedup_w1", "ratio", seconds(w1)/seconds(u.wall), 0)

		setIdleWire(r)
		setIdleOnline(r)
		return probeLayers(ctx, r, scen, cfg, a)
	}
}

// setPhases records a core solve's phase timings and counts.
func setPhases(r *runner, st core.Stats) {
	r.set("core.phase_greedy_s", "s", seconds(st.Timings.Greedy), 0)
	r.set("core.phase_sweep_s", "s", seconds(st.Timings.Sweep), 0)
	r.set("core.phase_reassign_s", "s", seconds(st.Timings.Reassign), 0)
	r.set("core.phase_reconcile_s", "s", seconds(st.Timings.Reconcile), 0)
	r.set("core.rounds", "count", float64(st.LocalSearchIters), 0)
	r.set("core.reassignments", "count", float64(st.Reassignments), 0)
	r.set("core.unplaced", "count", float64(st.Unplaced), 0)
}
