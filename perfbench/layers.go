package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/queueing"
)

// The per-layer probes call one layer's functions directly on a
// workload's solved allocation, each inside its own span, so a layer's
// cost is measured on the instance shape that workload gives it.

// probeClients is how many present clients the ledger, index and
// cluster-subproblem probes sample.
const probeClients = 200

// topK is the candidate width the index probe asks for: the scale-mode
// solver's top-k.
const topK = 6

// probeLayers runs every per-layer probe on a copy of a (solved with
// cfg on scen) and records the queueing, alloc, index and core metrics.
func probeLayers(ctx context.Context, r *runner, scen *model.Scenario, cfg core.Config, a *alloc.Allocation) error {
	b := a.Clone()
	ids := sampleClients(scen, r.opts.seed, probeClients)
	probeQueueing(r, b)
	if err := probeLedger(r, a, b, ids); err != nil {
		return err
	}
	s, err := core.NewSolver(scen, cfg)
	if err != nil {
		return err
	}
	probeIndexAndAssign(r, b, s, ids)
	return probeSolverPhases(ctx, r, scen, cfg)
}

// sampleClients draws up to n present clients, seeded.
func sampleClients(scen *model.Scenario, seed int64, n int) []model.ClientID {
	var present []model.ClientID
	for i := range scen.Clients {
		if scen.Clients[i].PredictedRate > 0 {
			present = append(present, model.ClientID(i))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
	if len(present) > n {
		present = present[:n]
	}
	return present
}

// probeQueueing times queueing.MeanResponseTime, the eq. (1) evaluation,
// over every assigned client of b, and checks it against the
// allocation's own response time.
func probeQueueing(r *runner, b *alloc.Allocation) {
	scen := b.Scenario()
	type call struct {
		ports []queueing.Portion
		ex    queueing.ExecTimes
		rate  float64
		want  float64
	}
	var calls []call
	for i := range scen.Clients {
		id := model.ClientID(i)
		want, err := b.ResponseTime(id)
		if err != nil {
			continue // unassigned or saturated: no finite response time
		}
		cl := &scen.Clients[i]
		c := call{ex: queueing.ExecTimes{Proc: cl.ProcTime, Comm: cl.CommTime}, rate: cl.PredictedRate, want: want}
		for _, p := range b.Portions(id) {
			class := scen.Cloud.ServerClass(p.Server)
			c.ports = append(c.ports, queueing.Portion{
				Alpha:  p.Alpha,
				Shares: queueing.PortionShares{Proc: p.ProcShare, Comm: p.CommShare},
				Caps:   queueing.ServerCaps{Proc: class.ProcCap, Comm: class.CommCap},
			})
		}
		calls = append(calls, c)
	}
	if len(calls) == 0 {
		r.set("queueing.response_ns", "ns", 0, 0)
		return
	}
	for _, c := range calls {
		got, err := queueing.MeanResponseTime(c.ports, c.ex, c.rate)
		r.chk.op(err)
		if err == nil && !near(got, c.want, 1e-12) {
			r.chk.fail(fmt.Errorf("queueing: response time %v, allocation says %v", got, c.want))
		}
	}
	reps := max(1, 200000/len(calls))
	sp := r.tr.root("queueing.response")
	for rep := 0; rep < reps; rep++ {
		for _, c := range calls {
			v, _ := queueing.MeanResponseTime(c.ports, c.ex, c.rate)
			sink += v
		}
	}
	d := sp.end()
	n := reps * len(calls)
	r.set("queueing.response_ns", "ns", float64(d.Nanoseconds())/float64(n), n)
}

// sink keeps the results of timed loops live, so the compiler cannot
// drop the calls.
var sink float64

// probeLedger times the incremental ledger and its transactions on the
// sampled clients of b, then checks that b still prices like a.
func probeLedger(r *runner, a, b *alloc.Allocation, ids []model.ClientID) error {
	var assigned []model.ClientID
	for _, i := range ids {
		if b.Assigned(i) {
			assigned = append(assigned, i)
		}
	}
	if len(assigned) == 0 {
		return fmt.Errorf("ledger probe: no sampled client is assigned")
	}
	op := r.tr.root("alloc.probe")
	defer op.end()

	// A Txn round trip: open a cluster-scoped transaction, capture the
	// client, move it out, read the exact delta, roll back.
	const rounds = 10
	n := rounds * len(assigned)
	m0 := mallocs()
	sp := r.tr.child(op, "alloc.delta")
	for rep := 0; rep < rounds; rep++ {
		for _, i := range assigned {
			tx := b.BeginCluster(model.ClusterID(b.ClusterOf(i)))
			tx.Capture(i)
			b.Unassign(i)
			_ = tx.Delta()
			if err := tx.Rollback(); err != nil {
				r.chk.fail(err)
			}
		}
	}
	d := sp.end()
	allocs := mallocs() - m0
	r.set("alloc.delta_ns", "ns", float64(d.Nanoseconds())/float64(n), n)
	r.set("alloc.allocs_per_delta", "count", float64(allocs)/float64(n), n)

	// Profit after one move: only the moved client's cluster is stale.
	var ts []float64
	for _, i := range assigned {
		b.Profit()
		k, ports := b.Unassign(i)
		sp := r.tr.child(op, "alloc.profit")
		b.Profit()
		ts = append(ts, float64(sp.end().Nanoseconds()))
		if err := b.Assign(i, k, ports); err != nil {
			return fmt.Errorf("ledger probe: restore client %d: %w", i, err)
		}
	}
	r.set("alloc.profit_ns", "ns", median(ts), len(ts))

	// The from-scratch recompute the incremental ledger replaces.
	ts = ts[:0]
	for start := time.Now(); len(ts) < 5 || (len(ts) < 200 && time.Since(start) < 200*time.Millisecond); {
		sp := r.tr.child(op, "alloc.recompute")
		b.RecomputeBreakdown()
		ts = append(ts, float64(sp.end().Nanoseconds()))
	}
	r.set("alloc.recompute_ns", "ns", median(ts), len(ts))

	r.chk.op(checkAllocation(b, nil))
	if !near(a.Profit(), b.Profit(), 1e-9) {
		r.chk.fail(fmt.Errorf("ledger probe: profit %v after rolled-back moves, %v before", b.Profit(), a.Profit()))
	}
	return nil
}

// probeIndexAndAssign times the candidate index and the cluster
// subproblem, and measures how often the index's top-k holds the cluster
// an exact AssignDistribute scan would pick.
func probeIndexAndAssign(r *runner, b *alloc.Allocation, s *core.Solver, ids []model.ClientID) {
	op := r.tr.root("index.probe")
	var ts []float64
	var ix *alloc.Index
	for len(ts) < 5 {
		sp := r.tr.child(op, "index.build")
		ix = alloc.NewIndex(b)
		ix.Refresh()
		ts = append(ts, float64(sp.end().Nanoseconds()))
	}
	r.set("index.build_ns", "ns", median(ts), len(ts))

	out := make([]alloc.Candidate, 0, topK)
	const rounds = 20
	sp := r.tr.child(op, "index.topk")
	for rep := 0; rep < rounds; rep++ {
		for _, i := range ids {
			out = ix.TopK(i, topK, nil, out)
		}
	}
	d := sp.end()
	op.end()
	r.set("index.topk_ns", "ns", float64(d.Nanoseconds())/float64(rounds*len(ids)), rounds*len(ids))

	// Each sampled client is taken out of the allocation and offered to
	// every cluster, as a fresh placement decision.
	numK := b.Scenario().Cloud.NumClusters()
	var calls, feasible, hits, decided int
	var assignNS int64
	op = r.tr.root("core.assign_probe")
	m0 := mallocs()
	for _, i := range ids {
		k, ports := b.Unassign(i)
		if k >= 0 {
			ix.RefreshClusters([]model.ClusterID{k})
		}
		best, bestEst := -1, 0.0
		for kk := 0; kk < numK; kk++ {
			sp := r.tr.child(op, "core.assign_distribute")
			est, _, err := s.AssignDistribute(b, i, model.ClusterID(kk))
			assignNS += sp.end().Nanoseconds()
			calls++
			if err != nil {
				continue
			}
			feasible++
			if best < 0 || est > bestEst {
				best, bestEst = kk, est
			}
		}
		if best >= 0 {
			decided++
			for _, c := range ix.TopK(i, topK, nil, out) {
				if int(c.Cluster) == best {
					hits++
					break
				}
			}
		}
		if k >= 0 {
			if err := b.Assign(i, k, ports); err != nil {
				r.chk.fail(fmt.Errorf("assign probe: restore client %d: %w", i, err))
			}
			ix.RefreshClusters([]model.ClusterID{k})
		}
	}
	allocs := mallocs() - m0
	op.end()
	r.set("core.assign_distribute_us", "us", float64(assignNS)/1e3/float64(calls), calls)
	r.set("core.assign_feasible_ratio", "ratio", float64(feasible)/float64(calls), calls)
	r.set("core.assign_allocs", "count", float64(allocs)/float64(calls), calls)
	hit := 0.0
	if decided > 0 {
		hit = float64(hits) / float64(decided)
	}
	r.set("index.topk_hit_ratio", "ratio", hit, decided)
}

// probeSolverPhases times one greedy start, one reassignment pass over
// it, and one local search from it, each on a fresh solver so no pass
// reuses another's cached marks. The greedy start is a solve with one
// start and no rounds, so on batch-sharded it is built shard by shard as
// the workload builds it; an unsharded start of that instance takes
// 50 s.
func probeSolverPhases(ctx context.Context, r *runner, scen *model.Scenario, cfg core.Config) error {
	gcfg := cfg
	gcfg.NumInitSolutions = 1
	gcfg.MaxLocalSearchIters = 0
	s, err := core.NewSolver(scen, gcfg)
	if err != nil {
		return err
	}
	sp := r.tr.root("core.greedy_start")
	init, st, err := s.SolveCtx(ctx)
	d := sp.end()
	r.chk.op(err)
	if err != nil {
		return err
	}
	r.chk.fail(checkAllocation(init, &st))
	r.set("core.greedy_start_s", "s", seconds(d), 0)

	c := init.Clone()
	if s, err = core.NewSolver(scen, cfg); err != nil {
		return err
	}
	sp = r.tr.root("core.reassign_pass")
	s.ReassignmentPassCtx(ctx, c)
	r.set("core.reassign_pass_s", "s", seconds(sp.end()), 0)
	r.chk.op(checkAllocation(c, nil))

	if s, err = core.NewSolver(scen, cfg); err != nil {
		return err
	}
	sp = r.tr.root("core.improve")
	s.ImproveLocalCtx(ctx, init, &core.Stats{})
	r.set("core.improve_s", "s", seconds(sp.end()), 0)
	r.chk.op(checkAllocation(init, nil))
	return nil
}
