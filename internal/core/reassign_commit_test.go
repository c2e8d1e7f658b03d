package core

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/telemetry"
)

// TestCommitCandsCountsFailures drives the reassignment commit loop's
// worst-case branch directly: a candidate scored against current cluster
// versions whose move no longer fits, and whose rollback cannot restore
// the old placement either. The client's rate is inflated after the
// solve, so its new portions and its old ones both saturate. Both
// failures must be counted and the client must end unserved — in the
// whole-cloud scope and in a shard's scope alike.
func TestCommitCandsCountsFailures(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shard bool
	}{{"whole_cloud", false}, {"shard", true}} {
		t.Run(tc.name, func(t *testing.T) {
			scen := smallScenario(t, 30, 21)
			set := telemetry.New(nil)
			s := newTestSolver(t, scen, func(c *Config) { c.Telemetry = set })
			a, _, err := s.SolveCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			// The first served client with a feasible placement on some
			// other cluster, priced as the scoring stage would.
			var cand reassignCand
			var scr distScratch
			found := false
			for ci := 0; ci < scen.NumClients() && !found; ci++ {
				i := model.ClientID(ci)
				if !a.Assigned(i) {
					continue
				}
				from := a.ClusterOf(i)
				view := a.Excluding(i)
				for k := 0; k < scen.Cloud.NumClusters(); k++ {
					if k == from {
						continue
					}
					_, portions, err := s.assignDistribute(&view, i, model.ClusterID(k), nil, &scr)
					if err != nil {
						continue
					}
					cand = reassignCand{
						client:   i,
						fromK:    from,
						toK:      k,
						delta:    1,
						minDelta: 1e-9,
						fromVer:  a.ClusterVersion(model.ClusterID(from)),
						toVer:    a.ClusterVersion(model.ClusterID(k)),
						portions: append(portions[:0:0], portions...),
					}
					found = true
					break
				}
			}
			if !found {
				t.Fatal("no served client has a feasible placement on another cluster")
			}
			victim := cand.client
			scen.Clients[victim].PredictedRate *= 1e6
			scen.Clients[victim].ArrivalRate *= 1e6

			var subset []model.ClusterID
			if tc.shard {
				subset = []model.ClusterID{model.ClusterID(cand.fromK), model.ClusterID(cand.toK)}
			}
			r := s.newReassignRun(a, subset)
			r.heap = candPush(r.heap, cand)

			commitFails := set.Counter("solver_reassign_commit_failures_total")
			restoreFails := set.Counter("solver_reassign_restore_failures_total")
			commitBefore, restoreBefore := commitFails.Value(), restoreFails.Value()
			if moves := s.commitCands(context.Background(), r, &reassignScratch{}); moves != 0 {
				t.Fatalf("failed commit counted as %d moves", moves)
			}
			if got := commitFails.Value() - commitBefore; got != 1 {
				t.Fatalf("commit failures rose by %d, want 1", got)
			}
			if got := restoreFails.Value() - restoreBefore; got != 1 {
				t.Fatalf("restore failures rose by %d, want 1", got)
			}
			if a.Assigned(victim) {
				t.Fatal("victim still served after a failed rollback")
			}
			// No Validate here: inflating a rate under a live allocation
			// leaves its incremental bookkeeping inconsistent (the victim's
			// loads were added at the old rate and removed at the new one).
		})
	}
}
