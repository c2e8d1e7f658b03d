package core

import (
	"context"
	"math"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// ReassignmentPass is the cloud-level move of the paper's local search:
// each client is removed and re-placed on whichever cluster now offers
// the highest exact profit ("this local search is not only used to
// change client assignment to decrease the resource saturation in some of
// clusters but also to combine the clients", Section V). It is a central-
// manager operation — unlike the per-cluster phases it may move clients
// across clusters. Returns the number of improving moves (evictions and
// re-admissions included).
//
// Candidates are compared by their exact marginal profit against the
// "client unserved" state: moving one client only changes its own revenue
// and the costs of the servers it leaves or joins, so the comparison is
// O(portions) instead of O(clients).
//
// By default the pass runs as a two-stage pipeline (reassign_pipeline.go):
// candidate scoring for all clients in parallel against the frozen
// allocation, then a serial commit loop in descending-gain order. Config
// DisableParallelReassign selects the legacy one-client-at-a-time pass
// instead.
func (s *Solver) ReassignmentPass(a *alloc.Allocation) int {
	return s.ReassignmentPassCtx(context.Background(), a)
}

// ReassignmentPassCtx is ReassignmentPass under a caller-provided
// context: the pass's flight-recorder events carry the trace context of
// the span in ctx, linking each commit/restore failure to the round it
// happened in.
func (s *Solver) ReassignmentPassCtx(ctx context.Context, a *alloc.Allocation) int {
	return s.reassignmentPass(ctx, a, false)
}

// reassignmentPass dispatches between the pipelined pass and the legacy
// sequential one. reconcile marks the sharded solve's serial cross-shard
// reconciliation: successful moves are then logged (sampled) to the
// flight recorder as reconcile_move events.
func (s *Solver) reassignmentPass(ctx context.Context, a *alloc.Allocation, reconcile bool) int {
	if s.cfg.DisableParallelReassign {
		return s.reassignmentPassSequential(ctx, a, reconcile)
	}
	return s.reassignmentPassPipelined(ctx, a, reconcile)
}

// reassignmentPassSequential is the pre-pipeline baseline: score and
// commit one client at a time in ID order, each client seeing the moves
// of every client before it.
func (s *Solver) reassignmentPassSequential(ctx context.Context, a *alloc.Allocation, reconcile bool) int {
	ref := telemetry.RefFromContext(ctx)
	numK := s.scen.Cloud.NumClusters()
	var moves int
	var commitFails, restoreFails int64
	var seen []model.ServerID // portionServerCost dedup scratch
	var scr distScratch
	var bestBuf []alloc.Portion // recycled copy of the best candidate's portions
	for ci := 0; ci < s.scen.NumClients(); ci++ {
		i := model.ClientID(ci)
		if s.scen.Clients[ci].PredictedRate == 0 {
			continue // absent client: nothing to move or admit
		}
		prevK, prevPortions := a.Unassign(i)

		// Marginal profit of a candidate placement vs staying out.
		gainOf := func(k model.ClusterID, portions []alloc.Portion) (float64, bool) {
			costBefore := s.portionServerCost(a, portions, &seen)
			if err := a.Assign(i, k, portions); err != nil {
				return 0, false
			}
			// RevenueErr separates "infeasible move" (saturated portions —
			// reject the candidate) from "worthless move" (zero revenue —
			// a legitimate gain of −Δcost).
			rev, revErr := a.RevenueErr(i)
			gain := rev - (s.portionServerCost(a, portions, &seen) - costBefore)
			a.Unassign(i)
			if revErr != nil {
				return 0, false
			}
			return gain, true
		}

		prevGain := math.Inf(-1)
		if prevK != alloc.Unassigned {
			if g, ok := gainOf(prevK, prevPortions); ok {
				prevGain = g
			}
		}

		bestGain := math.Inf(-1)
		var bestK model.ClusterID
		var bestPortions []alloc.Portion
		for k := 0; k < numK; k++ {
			_, portions, err := s.assignDistribute(a, i, model.ClusterID(k), nil, &scr)
			if err != nil {
				continue
			}
			if g, ok := gainOf(model.ClusterID(k), portions); ok && g > bestGain {
				bestGain = g
				bestK = model.ClusterID(k)
				bestBuf = append(bestBuf[:0], portions...)
				bestPortions = bestBuf
			}
		}

		// Pick the best of: previous placement, best new placement, or —
		// with admission control — leaving the client out (gain 0).
		outGain := math.Inf(-1)
		if s.cfg.AdmissionControl {
			outGain = 0
		}
		switch {
		case bestPortions != nil && bestGain > prevGain+1e-9 && bestGain > outGain:
			if err := a.Assign(i, bestK, bestPortions); err == nil {
				moves++
				if reconcile {
					if f := s.flightSampled(i); f != nil {
						f.Record(telemetry.Event{Kind: telemetry.EventReconcileMove,
							Client: int64(i), Cluster: int64(bestK),
							Delta: bestGain, Trace: ref})
					}
				}
				continue
			} else {
				commitFails++
				s.flightRecord(telemetry.Event{Kind: telemetry.EventCommitFail,
					Client: int64(i), Cluster: int64(bestK), Delta: bestGain, Trace: ref})
				s.debugf("reassign: commit of best placement failed",
					"client", i, "cluster", bestK, "err", err)
			}
			fallthrough
		case prevK != alloc.Unassigned && prevGain >= outGain:
			if err := a.Assign(i, prevK, prevPortions); err != nil {
				// The client's previous placement no longer fits either —
				// it is now unserved, which must not pass silently.
				commitFails++
				restoreFails++
				s.flightRecord(telemetry.Event{Kind: telemetry.EventRestoreFail,
					Client: int64(i), Cluster: int64(prevK), Trace: ref})
				s.debugf("reassign: restore of previous placement failed, client unserved",
					"client", i, "cluster", prevK, "err", err)
				continue
			}
		default:
			// Client stays (or becomes) unserved.
			if prevK != alloc.Unassigned {
				moves++ // eviction is a move
			}
		}
	}
	if s.tel != nil {
		if commitFails > 0 {
			s.tel.reassignCommitFails.Add(commitFails)
		}
		if restoreFails > 0 {
			s.tel.reassignRestoreFails.Add(restoreFails)
		}
	}
	return moves
}

// portionServerCost sums the current cost of the (deduplicated) servers
// referenced by the portions. seen is a reused dedup scratch — portions
// touch at most a handful of servers, so a linear scan over a recycled
// small slice beats a per-call map on this hot path.
func (s *Solver) portionServerCost(a *alloc.Allocation, portions []alloc.Portion, seen *[]model.ServerID) float64 {
	var cost float64
	sl := (*seen)[:0]
	for _, p := range portions {
		dup := false
		for _, j := range sl {
			if j == p.Server {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		sl = append(sl, p.Server)
		cost += a.ServerCost(p.Server)
	}
	*seen = sl
	return cost
}

// debugf emits a debug log line through the telemetry set's logger; inert
// when telemetry is disabled.
func (s *Solver) debugf(msg string, args ...any) {
	if s.tel != nil {
		s.tel.set.Logger().Debug(msg, args...)
	}
}
