package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/model"
	"repro/internal/online"
)

// onlineConfig is the online-churn service: the defaults in sync mode,
// with the commit thresholds of the onlinebench CI smoke.
func onlineConfig(seed int64) online.Config {
	c := online.DefaultConfig()
	c.CommitRel = 0.2
	c.CommitFloor = 30
	c.Solver.Seed = seed
	return c
}

// absentFrac is the share of clients that start absent, the headroom
// arrivals draw from.
const absentFrac = 0.3

// servedSamples is how many times a stream records the published
// snapshot and the true rates for served_profit. With 100, moving the
// sampling points by a few events moved served_profit by 4%.
const servedSamples = 1000

// churnInput is an online-churn instance with its whole event stream
// generated up front.
type churnInput struct {
	scen   *model.Scenario
	cc     online.ChurnConfig
	events []online.Event
	every  int       // events between served-profit samples
	offset int       // a sample follows event n when n % every == offset
	final  []float64 // true rates after the last event
}

// churnSetup generates the scenario and stream of instance, and places
// the served-profit samples at an offset drawn from seed.
func churnSetup(sh shape, instance, seed int64) (*churnInput, error) {
	scen, err := pairedScenario(sh.clients, sh.clusters, instance)
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(float64(sh.clients)*absentFrac); i++ {
		scen.Clients[i].ArrivalRate = 0
		scen.Clients[i].PredictedRate = 0
	}
	cc := online.DefaultChurnConfig()
	cc.Events = sh.events
	cc.Seed = instance
	cc.FlashAt = sh.events / 2
	cc.FlashSize = sh.clients / 20
	cc.FlashBoost = 1.5
	churn := online.NewChurn(scen, cc)
	in := &churnInput{scen: scen, cc: cc, every: max(sh.events/servedSamples, 1)}
	in.offset = rand.New(rand.NewSource(seed)).Intn(in.every)
	for {
		ev, ok := churn.Next()
		if !ok {
			break
		}
		in.events = append(in.events, ev)
	}
	in.final = make([]float64, scen.NumClients())
	churn.Rates(in.final)
	return in, nil
}

// withRates returns a copy of scen with every client at the given rate.
func withRates(scen *model.Scenario, rates []float64) *model.Scenario {
	s := model.CloneScenario(scen)
	for i := range s.Clients {
		s.Clients[i].ArrivalRate = rates[i]
		s.Clients[i].PredictedRate = rates[i]
	}
	return s
}

// stream is what one replay of the event stream through a service gave.
type stream struct {
	wall      time.Duration // the whole loop, checks between calls included
	busy      time.Duration // inside Decide calls only
	decideNS  []float64     // every Decide call
	commitNS  []float64     // the calls during which Commits() advanced
	plainNS   []float64     // the other calls
	staleness []float64     // events since the snapshot version last changed
	admits    int64
	rejects   int64
	commits   int64
	served    float64           // mean realized profit of the sampled snapshots
	last      *alloc.Allocation // the published snapshot after the last event
	flushed   float64           // profit after Flush
}

// replay runs the stream through svc in a closed loop: one caller, each
// Decide issued when the previous one returns. Only the Decide call is
// timed. Between calls, a second generator replays the stream to know
// the true rates, and at the sampling points the published snapshot is
// validated and priced at them. With a non-nil tracer every call is a
// span under one stream span.
func replay(r *runner, svc *online.Service, in *churnInput, tr *tracer) stream {
	st := stream{decideNS: make([]float64, 0, len(in.events))}
	twin := online.NewChurn(in.scen, in.cc)
	truth := model.CloneScenario(in.scen)
	rates := make([]float64, truth.NumClients())
	var servedSum float64
	var servedN int
	validated := uint64(0)
	lastVer, since := svc.Version(), 0
	root := tr.root("online.stream")
	start := time.Now()
	for i, ev := range in.events {
		before := svc.Commits()
		sp := tr.child(root, "online.decide")
		t0 := time.Now()
		d := svc.Decide(ev)
		dt := float64(time.Since(t0).Nanoseconds())
		advanced := svc.Commits() > before
		if advanced {
			sp.name = "online.commit"
		}
		sp.end()
		st.busy += time.Duration(dt)
		st.decideNS = append(st.decideNS, dt)
		if advanced {
			st.commitNS = append(st.commitNS, dt)
		} else {
			st.plainNS = append(st.plainNS, dt)
		}
		var err error
		if d.Committed && !advanced {
			err = fmt.Errorf("event %d: decision reports a commit, Commits() did not advance", i)
		}
		if tw, _ := twin.Next(); tw != ev {
			err = fmt.Errorf("event %d: the stream did not regenerate (%+v, then %+v)", i, ev, tw)
		}
		r.chk.op(err)
		if tr != nil {
			if v := svc.Version(); v != lastVer {
				lastVer, since = v, 0
			} else {
				since++
			}
			st.staleness = append(st.staleness, float64(since))
		}
		if (i+1)%in.every == in.offset {
			a, ver := svc.Snapshot()
			if ver != validated {
				// In sync mode the service's rates are those of the last
				// commit, which produced this snapshot.
				r.chk.fail(checkAllocation(a, nil))
				validated = ver
			}
			twin.Rates(rates)
			for c := range truth.Clients {
				truth.Clients[c].ArrivalRate = rates[c]
				truth.Clients[c].PredictedRate = rates[c]
			}
			p, _ := epoch.Realize(truth, a)
			servedSum += p
			servedN++
		}
	}
	st.wall = time.Since(start)
	root.end()
	st.admits, st.rejects, st.commits = svc.Admits(), svc.Rejects(), svc.Commits()
	st.served = servedSum / float64(servedN)
	st.last, _ = svc.Snapshot()
	r.chk.op(checkAllocation(svc.Flush(), nil))
	st.flushed = svc.Profit()
	return st
}

// checkSameStream fails when two replays of the same stream disagree:
// sync mode is a deterministic replay.
func checkSameStream(r *runner, what string, a, b stream) {
	for _, c := range []struct {
		name string
		x, y float64
	}{
		{"admits", float64(a.admits), float64(b.admits)},
		{"rejects", float64(a.rejects), float64(b.rejects)},
		{"commits", float64(a.commits), float64(b.commits)},
		{"served_profit", a.served, b.served},
		{"post-flush profit", a.flushed, b.flushed},
	} {
		r.chk.fail(sameBits(what+" "+c.name, c.x, c.y))
	}
}

// retention is the post-Flush profit over a cold default solve of the
// true final rates.
func retention(ctx context.Context, r *runner, in *churnInput, flushed float64) (float64, error) {
	s, err := core.NewSolver(withRates(in.scen, in.final), exactConfig(r.opts.instance, 0))
	if err != nil {
		return 0, err
	}
	a, st, err := s.SolveCtx(ctx)
	r.chk.op(err)
	if err != nil {
		return 0, err
	}
	r.chk.fail(checkAllocation(a, &st))
	return flushed / st.FinalProfit, nil
}

// onlineE2E measures online-churn: setupReps set-ups of the service
// (scenario, stream, online.New with its first solve), then rounds that
// each set up a fresh service and replay the whole stream, until the
// run's time is up. Sync mode replays deterministically, so every round
// must decide, commit and earn exactly as the first.
func onlineE2E(ctx context.Context, r *runner) error {
	cfg := onlineConfig(r.opts.instance)
	var in *churnInput
	var svc *online.Service
	setup := func() (err error) {
		if in, err = churnSetup(r.shape, r.opts.instance, r.opts.seed); err != nil {
			return err
		}
		svc, err = online.New(in.scen, cfg)
		return err
	}
	var setups []float64
	for len(setups) < setupReps {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		setups = append(setups, seconds(time.Since(t0)))
		svc.Close()
	}

	var rates, decide, commit, peaks []float64
	var first stream
	var last time.Duration
	for start := time.Now(); r.more(start, len(rates), minSolves, last); {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		setups = append(setups, seconds(time.Since(t0)))
		mem := startMem()
		st := replay(r, svc, in, nil)
		peaks = append(peaks, mem.end())
		svc.Close()
		last = time.Since(t0)
		rates = append(rates, float64(len(in.events))/seconds(st.busy))
		decide = append(decide, st.decideNS...)
		commit = append(commit, st.commitNS...)
		if len(rates) == 1 {
			first = st
			continue
		}
		checkSameStream(r, "replay", first, st)
	}
	if len(commit) == 0 {
		return fmt.Errorf("no commit in %d events", len(decide))
	}
	decide, commit = sortedCopy(decide), sortedCopy(commit)
	r.set("setup_s", "s", median(setups), len(setups))
	r.set("events_per_s", "1/s", median(rates), len(rates))
	r.series("events_per_s", rates)
	r.series("setup_s", setups)
	r.set("decide_p50_us", "us", quantile(decide, 0.5)/1e3, len(decide))
	r.set("decide_p99_us", "us", quantile(decide, 0.99)/1e3, len(decide))
	r.set("solve_s", "s", median(commit)/1e9, len(commit))
	r.set("profit", "profit", first.flushed, 0)
	r.set("served_profit", "profit", first.served, servedSamples)
	ret, err := retention(ctx, r, in, first.flushed)
	if err != nil {
		return err
	}
	r.set("retention", "ratio", ret, 0)
	r.set("peak_rss_mb", "MB", median(peaks), len(peaks))
	return nil
}

// onlineTrace is the traced run of online-churn: a warm-up and an
// untraced replay, a replay with one solver worker, and a replay with
// every Decide in a span; then a commit-shaped warm re-solve and the
// per-layer probes on its result.
func onlineTrace(ctx context.Context, r *runner) error {
	t0 := time.Now()
	sp := r.tr.root("workload.generate")
	_, err := pairedScenario(r.shape.clients, r.shape.clusters, r.opts.instance)
	sp.end()
	if err != nil {
		return err
	}
	r.set("workload.generate_s", "s", seconds(time.Since(t0)), 0)
	in, err := churnSetup(r.shape, r.opts.instance, r.opts.seed)
	if err != nil {
		return err
	}
	cfg := onlineConfig(r.opts.instance)
	run := func(cfg online.Config, tr *tracer) (stream, error) {
		runtime.GC()
		svc, err := online.New(in.scen, cfg)
		if err != nil {
			return stream{}, err
		}
		defer svc.Close()
		return replay(r, svc, in, tr), nil
	}

	if _, err := run(cfg, nil); err != nil { // warm-up
		return err
	}
	m := startUsage()
	base, err := run(cfg, nil)
	u := m.stop()
	if err != nil {
		return err
	}
	n := float64(len(in.events))
	r.set("parallel.cpu_per_wall", "ratio", seconds(u.cpu)/seconds(u.wall), 0)
	r.set("runtime.alloc_mb_per_op", "MB", u.allocMB/n, len(in.events))
	r.set("runtime.gc_cycles_per_op", "count", float64(u.gcCycles)/n, len(in.events))

	c1 := cfg
	c1.Solver.Workers = 1
	w1, err := run(c1, nil)
	if err != nil {
		return err
	}
	checkSameStream(r, "Workers=1 vs GOMAXPROCS", base, w1)
	r.set("parallel.speedup_w1", "ratio", seconds(w1.busy)/seconds(base.busy), 0)

	traced, err := run(cfg, r.tr)
	if err != nil {
		return err
	}
	checkSameStream(r, "traced vs untraced", base, traced)
	r.set("trace.overhead_frac", "frac", seconds(traced.wall)/seconds(base.wall)-1, 0)
	plain := sortedCopy(traced.plainNS)
	commits := sortedCopy(traced.commitNS)
	stale := sortedCopy(traced.staleness)
	r.set("online.decide_ns_p50", "ns", quantile(plain, 0.5), len(plain))
	r.set("online.commit_ms_p50", "ms", quantile(commits, 0.5)/1e6, len(commits))
	r.set("online.commit_ms_p99", "ms", quantile(commits, 0.99)/1e6, len(commits))
	r.set("online.commits", "count", float64(traced.commits), 0)
	r.set("online.reject_frac", "frac", float64(traced.rejects)/float64(traced.admits+traced.rejects), 0)
	r.set("online.staleness_events_p99", "events", quantile(stale, 0.99), len(stale))

	// A commit is a warm re-solve from the published snapshot: run one
	// from outside, from the last snapshot before the flush to the true
	// final rates, and read its phases.
	fin := withRates(in.scen, in.final)
	s, err := core.NewSolver(fin, cfg.Solver)
	if err != nil {
		return err
	}
	sp = r.tr.root("core.solve_from")
	a, st, err := s.SolveFromCtx(ctx, traced.last)
	wall := sp.end()
	r.chk.op(err)
	if err != nil {
		return err
	}
	r.chk.fail(checkAllocation(a, &st))
	r.set("core.solve_wall_s", "s", seconds(wall), 0)
	setPhases(r, st)
	if err := probeWire(ctx, r, r.shape.wireClients); err != nil {
		return err
	}
	return probeLayers(ctx, r, fin, cfg.Solver, a)
}

// setIdleOnline records the online metrics of a workload that does not
// run the online service.
func setIdleOnline(r *runner) {
	r.set("online.decide_ns_p50", "ns", 0, 0)
	r.set("online.commit_ms_p50", "ms", 0, 0)
	r.set("online.commit_ms_p99", "ms", 0, 0)
	r.set("online.commits", "count", 0, 0)
	r.set("online.reject_frac", "frac", 0, 0)
	r.set("online.staleness_events_p99", "events", 0, 0)
}
