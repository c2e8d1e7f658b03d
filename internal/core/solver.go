package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Solver runs the Resource_Alloc heuristic on one scenario. A Solver is
// safe for concurrent use as long as each goroutine works on its own
// allocation; it must not be copied (it guards internal pass state with
// a mutex).
type Solver struct {
	scen   *model.Scenario
	cfg    Config
	prices shadowPrices
	tel    *solverTel // nil when telemetry is disabled

	// reassignSt caches the whole-cloud reassignment pass's cross-round
	// skip marks between calls (reassign_pipeline.go). The mutex makes
	// check-out/check-in safe when callers run passes concurrently on
	// different allocations.
	reassignMu sync.Mutex
	reassignSt *reassignState
}

// Stats reports what the solver did.
type Stats struct {
	InitialProfit    float64
	FinalProfit      float64
	LocalSearchIters int
	Activations      int
	Deactivations    int
	Reassignments    int
	Unplaced         int
	Elapsed          time.Duration
	// Attribution splits the profit between the initial solution and the
	// local-search phases (attribution.go). Always populated — the deltas
	// come from the allocation's O(touched) per-cluster ledger reads, so
	// no telemetry set is needed. ImproveLocalCtx fills the phase deltas;
	// SolveCtx/SolveFromCtx additionally set Initial and Final.
	Attribution Attribution
	// Timings is the per-phase wall-clock breakdown (attribution.go).
	Timings PhaseTimings
}

// NewSolver validates the inputs and calibrates the capacity shadow
// prices for the scenario.
func NewSolver(scen *model.Scenario, cfg Config) (*Solver, error) {
	if scen == nil {
		return nil, errors.New("core: nil scenario")
	}
	if err := scen.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Solver{
		scen:   scen,
		cfg:    cfg,
		prices: calibratePrices(scen, cfg.ShadowPriceScale),
		tel:    newSolverTel(cfg.Telemetry),
	}, nil
}

// Scenario returns the scenario the solver was built for.
func (s *Solver) Scenario() *model.Scenario { return s.scen }

// SolveCtx runs the full heuristic: multi-start greedy initial solutions,
// then local search on the best one (paper Figure 3).
//
// The greedy starts fan out over a bounded worker pool (Config.Workers).
// Each start derives its own RNG by seed-splitting from Config.Seed —
// start i sees the same random client order at any worker count — and
// the winner is reduced under the total order (profit descending, start
// index ascending), so the solve is bit-identical for W=1 and W=N. Each
// worker recycles one allocation arena across its starts (alloc.Reset),
// keeping only its running best.
//
// Every span the solve records — greedy, rounds, fan-outs, shards —
// parents into the span carried by ctx (a fresh trace tree when ctx
// carries none), and flight-recorder events are stamped with that trace
// context.
func (s *Solver) SolveCtx(ctx context.Context) (*alloc.Allocation, Stats, error) {
	if s.cfg.Shards > 1 && s.scen.Cloud.NumClusters() > 1 {
		// Sharded mode (shard.go): clusters partitioned across independent
		// shards, per-shard greedy + local search on the fan-out pool, with
		// serial cross-shard reconciliation between rounds.
		return s.solveSharded(ctx)
	}
	start := time.Now()
	sp, ctx := s.tel.startCtx(ctx, "solver.solve")
	sp.Attr("clients", s.scen.NumClients())
	sp.Attr("clusters", s.scen.Cloud.NumClusters())
	if s.tel != nil {
		s.tel.solves.Inc()
	}

	gsp, gctx := s.tel.startCtx(ctx, "solver.greedy")
	tGreedy := time.Now()
	best, bestProfit, err := s.multiStart(gctx)
	if err != nil {
		return nil, Stats{}, err
	}
	if s.tel != nil {
		s.tel.greedyDur.ObserveSince(tGreedy)
		gsp.Attr("initial_profit", bestProfit)
		gsp.Attr("starts", s.cfg.NumInitSolutions)
	}
	gsp.End()
	if best == nil {
		return nil, Stats{}, errors.New("core: no initial solution produced")
	}

	stats := Stats{InitialProfit: bestProfit}
	stats.Timings.Greedy = time.Since(tGreedy)
	s.ImproveLocalCtx(ctx, best, &stats)
	stats.FinalProfit = best.Profit()
	stats.Attribution.Initial = stats.InitialProfit
	stats.Attribution.Final = stats.FinalProfit
	stats.Unplaced = s.scen.NumClients() - best.NumAssigned()
	stats.Elapsed = time.Since(start)
	if s.tel != nil {
		s.tel.unplacedClients.Set(float64(stats.Unplaced))
		sp.Attr("final_profit", stats.FinalProfit)
		sp.Attr("rounds", stats.LocalSearchIters)
	}
	sp.End()
	return best, stats, nil
}

// multiStart runs the NumInitSolutions greedy starts on the fan-out
// engine and returns the winner under (profit desc, start index asc).
func (s *Solver) multiStart(ctx context.Context) (*alloc.Allocation, float64, error) {
	n := s.cfg.NumInitSolutions
	workers := parallel.Bound(s.cfg.Workers, n)
	// Per-worker state: cur is the recycled arena for the next start,
	// best the worker's winner so far under the global total order.
	type workerBest struct {
		a      *alloc.Allocation
		profit float64
		index  int
	}
	curs := make([]*alloc.Allocation, workers)
	bests := make([]workerBest, workers)
	errs := make([]error, n)
	opts := parallel.Options{Workers: workers, Phase: "multistart", Ctx: ctx}
	if s.tel != nil {
		opts.Tel = s.tel.set
	}
	ref := telemetry.RefFromContext(ctx)
	parallel.For(opts, n, func(w, iter int) {
		a := curs[w]
		if a == nil {
			a = alloc.New(s.scen)
			if s.tel != nil {
				a.Instrument(s.tel.set)
			}
		} else {
			a.Reset()
		}
		if err := s.buildInitial(a, parallel.Rand(s.cfg.Seed, uint64(iter)), ref); err != nil {
			errs[iter] = err
			curs[w] = a
			return
		}
		p := a.Profit()
		if b := &bests[w]; b.a == nil || p > b.profit || (p == b.profit && iter < b.index) {
			curs[w] = b.a
			*b = workerBest{a: a, profit: p, index: iter}
		} else {
			curs[w] = a
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	var best *alloc.Allocation
	var bestProfit float64
	bestIndex := n
	for w := range bests {
		b := &bests[w]
		if b.a == nil {
			continue
		}
		if best == nil || b.profit > bestProfit || (b.profit == bestProfit && b.index < bestIndex) {
			best, bestProfit, bestIndex = b.a, b.profit, b.index
		}
	}
	return best, bestProfit, nil
}

// InitialSolution builds one greedy solution: clients in random order,
// each placed on the cluster whose Assign_Distribute promises the highest
// approximate profit. Clients that fit nowhere stay unassigned (the paper
// assumes a feasible instance; we degrade gracefully).
func (s *Solver) InitialSolution(rng *rand.Rand) (*alloc.Allocation, error) {
	a := alloc.New(s.scen)
	if s.tel != nil {
		a.Instrument(s.tel.set)
	}
	if err := s.buildInitial(a, rng, telemetry.TraceRef{}); err != nil {
		return nil, err
	}
	return a, nil
}

// buildInitial runs one greedy pass into an empty (fresh or Reset)
// allocation. Candidate generation goes through a per-pass greedyState
// (candidates.go): the exact full scan, or index-backed when
// Config.CandidateClusters enables top-k pruning. ref stamps the pass's
// flight-recorder events with the enclosing span's trace context.
func (s *Solver) buildInitial(a *alloc.Allocation, rng *rand.Rand, ref telemetry.TraceRef) error {
	gs := s.newGreedyState(a, nil, ref)
	order := rng.Perm(s.scen.NumClients())
	for _, ci := range order {
		i := model.ClientID(ci)
		if s.scen.Clients[i].PredictedRate == 0 {
			continue // absent client (zero rate): nothing to place
		}
		if err := s.placeBest(a, i, gs); err != nil && !errors.Is(err, ErrCannotPlace) {
			return err
		}
	}
	gs.flushTelemetry(s.tel)
	return nil
}

// ImproveLocalCtx runs the local-search phases until the profit is
// steady or the iteration budget is exhausted. It mutates a in place and
// records activity in stats (which may be nil). Round and reassignment
// spans parent into the span carried by ctx. It always accumulates the
// per-phase profit deltas and timings into stats.Attribution and
// stats.Timings (Initial/Final stay zero unless the caller sets them, as
// SolveCtx and SolveFromCtx do).
func (s *Solver) ImproveLocalCtx(ctx context.Context, a *alloc.Allocation, stats *Stats) {
	if stats == nil {
		stats = &Stats{}
	}
	prev := a.Profit()
	for iter := 0; iter < s.cfg.MaxLocalSearchIters; iter++ {
		stats.LocalSearchIters = iter + 1
		rsp, rctx := s.tel.startCtx(ctx, "solver.round")
		var t0 time.Time
		if s.tel != nil {
			t0 = time.Now()
			s.tel.rounds.Inc()
			rsp.Attr("round", iter+1)
		}
		tSweep := time.Now()
		s.improvePass(a, stats)
		stats.Timings.Sweep += time.Since(tSweep)
		if !s.cfg.DisableReassign {
			// Cloud-level client reassignment is a central-manager move and
			// runs between the parallel per-cluster sweeps.
			tr := time.Now()
			before := a.Profit()
			moved := s.ReassignmentPassCtx(rctx, a)
			stats.Reassignments += moved
			delta := a.Profit() - before
			stats.Attribution.Reassign += delta
			stats.Timings.Reassign += time.Since(tr)
			if s.tel != nil {
				s.tel.reassignDur.ObserveSince(tr)
				s.tel.reassignments.Add(int64(moved))
				s.tel.reassignDelta.Add(delta)
			}
		}
		p := a.Profit()
		if s.tel != nil {
			s.tel.roundDur.ObserveSince(t0)
			rsp.Attr("profit", p)
			rsp.Attr("delta", p-prev)
		}
		rsp.End()
		if p-prev <= s.cfg.Tolerance*(1+absf(prev)) {
			break
		}
		prev = p
	}
}

// improvePass runs one sweep of all enabled phases. When Parallel is set
// the per-cluster work runs concurrently: every mutation a phase makes is
// confined to one cluster (clients are pinned to a single cluster by
// constraint (6)), so cluster goroutines touch disjoint state. Cluster
// membership is snapshotted up front so no goroutine reads another
// cluster's assignment fields.
func (s *Solver) improvePass(a *alloc.Allocation, stats *Stats) {
	numK := s.scen.Cloud.NumClusters()
	members := s.clusterMembers(a)
	acts := make([]int, numK)
	deacts := make([]int, numK)
	deltas := make([]sweepDeltas, numK)
	run := func(k int) {
		acts[k], deacts[k], deltas[k] = s.sweepCluster(a, model.ClusterID(k), members[k])
	}
	if s.cfg.Parallel && numK > 1 {
		var wg sync.WaitGroup
		for k := 0; k < numK; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				run(k)
			}(k)
		}
		wg.Wait()
	} else {
		for k := 0; k < numK; k++ {
			run(k)
		}
	}
	var total sweepDeltas
	for k := 0; k < numK; k++ {
		stats.Activations += acts[k]
		stats.Deactivations += deacts[k]
		total.add(deltas[k])
	}
	stats.Attribution.ShareAdjust += total.share
	stats.Attribution.DispersionAdjust += total.disp
	stats.Attribution.TurnOn += total.turnOn
	stats.Attribution.TurnOff += total.turnOff
}

// sweepCluster runs the enabled per-cluster local-search phases on one
// cluster and returns the activation/deactivation counts plus each
// phase's profit delta, read through the allocation's O(touched)
// per-cluster ledger. Every mutation (and every profit read) is confined
// to the cluster, so callers may run sweeps on distinct clusters
// concurrently (improvePass's per-cluster goroutines, the sharded
// solve's per-shard rounds). When telemetry is attached the sweep also
// records per-phase timing, move-acceptance counters and cumulative
// delta gauges — same moves either way.
func (s *Solver) sweepCluster(a *alloc.Allocation, kid model.ClusterID, members []model.ClientID) (acts, deacts int, d sweepDeltas) {
	tel := s.tel
	if !s.cfg.DisableShareAdjust {
		var t0 time.Time
		if tel != nil {
			t0 = time.Now()
		}
		before := a.ClusterProfit(kid)
		var accepted int64
		servers := s.scen.Cloud.ClusterServers(kid)
		for _, j := range servers {
			if s.AdjustResourceShares(a, j) {
				accepted++
			}
		}
		d.share = a.ClusterProfit(kid) - before
		if tel != nil {
			tel.shareDur.ObserveSince(t0)
			tel.shareMoves.Add(int64(len(servers)))
			tel.shareAccepts.Add(accepted)
			tel.shareDelta.Add(d.share)
		}
	}
	if !s.cfg.DisableDispersionAdjust {
		var t0 time.Time
		if tel != nil {
			t0 = time.Now()
		}
		before := a.ClusterProfit(kid)
		var accepted int64
		for _, id := range members {
			if s.AdjustDispersionRates(a, id) {
				accepted++
			}
		}
		d.disp = a.ClusterProfit(kid) - before
		if tel != nil {
			tel.dispersionDur.ObserveSince(t0)
			tel.dispMoves.Add(int64(len(members)))
			tel.dispAccepts.Add(accepted)
			tel.dispDelta.Add(d.disp)
		}
	}
	if !s.cfg.DisableTurnOn {
		var t0 time.Time
		if tel != nil {
			t0 = time.Now()
		}
		before := a.ClusterProfit(kid)
		acts = s.turnOnServers(a, kid, members)
		d.turnOn = a.ClusterProfit(kid) - before
		if tel != nil {
			tel.turnOnDur.ObserveSince(t0)
			tel.activations.Add(int64(acts))
			tel.turnOnDelta.Add(d.turnOn)
		}
	}
	if !s.cfg.DisableTurnOff {
		var t0 time.Time
		if tel != nil {
			t0 = time.Now()
		}
		before := a.ClusterProfit(kid)
		deacts = s.turnOffServers(a, kid)
		d.turnOff = a.ClusterProfit(kid) - before
		if tel != nil {
			tel.turnOffDur.ObserveSince(t0)
			tel.deactivations.Add(int64(deacts))
			tel.turnOffDelta.Add(d.turnOff)
		}
	}
	return acts, deacts, d
}

// clusterMembers snapshots the assigned clients of every cluster.
func (s *Solver) clusterMembers(a *alloc.Allocation) [][]model.ClientID {
	members := make([][]model.ClientID, s.scen.Cloud.NumClusters())
	for i := range s.scen.Clients {
		id := model.ClientID(i)
		if k := a.ClusterOf(id); k != alloc.Unassigned {
			members[k] = append(members[k], id)
		}
	}
	return members
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
