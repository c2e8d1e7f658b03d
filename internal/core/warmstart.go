package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// SolveFromCtx re-solves for this solver's scenario starting from a
// previous epoch's allocation instead of an empty cloud (paper Figure 3:
// "curr_state_k = state of the cluster at end of prev. epoch").
//
// prev may belong to a different scenario snapshot — typically the same
// cloud with drifted client arrival rates. Every client keeps its previous
// portions when they are still feasible under the new rates; clients whose
// old placement saturates are re-placed greedily; then the usual local
// search runs. Returns the allocation and stats.
//
// The warm start records a solver.solve_from span (replay +
// re-placements + local search) parenting into the span carried by ctx —
// under the epoch controller this chains every epoch's solve into one
// trace per step.
func (s *Solver) SolveFromCtx(ctx context.Context, prev *alloc.Allocation) (*alloc.Allocation, Stats, error) {
	if prev == nil {
		return nil, Stats{}, errors.New("core: nil previous allocation")
	}
	prevScen := prev.Scenario()
	if prevScen.Cloud.NumServers() != s.scen.Cloud.NumServers() ||
		prevScen.NumClients() != s.scen.NumClients() {
		return nil, Stats{}, fmt.Errorf("core: previous allocation shape mismatch: %d/%d servers, %d/%d clients",
			prevScen.Cloud.NumServers(), s.scen.Cloud.NumServers(),
			prevScen.NumClients(), s.scen.NumClients())
	}
	sp, ctx := s.tel.startCtx(ctx, "solver.solve_from")
	sp.Attr("clients", s.scen.NumClients())
	defer sp.End()

	tGreedy := time.Now()
	a := alloc.New(s.scen)
	if s.tel != nil {
		a.Instrument(s.tel.set)
	}
	var displaced []model.ClientID
	for i := 0; i < s.scen.NumClients(); i++ {
		id := model.ClientID(i)
		if s.scen.Clients[i].PredictedRate == 0 {
			continue // departed since prev: drop the old placement, don't re-place
		}
		if !prev.Assigned(id) {
			displaced = append(displaced, id)
			continue
		}
		k := model.ClusterID(prev.ClusterOf(id))
		if err := a.Assign(id, k, prev.Portions(id)); err != nil {
			// The old shares no longer sustain the new rates (or disk
			// changed); re-place below once the keepers are in.
			displaced = append(displaced, id)
		}
	}
	var replaced int
	gs := s.newGreedyState(a, nil, telemetry.RefFromContext(ctx))
	for _, id := range displaced {
		if err := s.placeBest(a, id, gs); err != nil {
			if errors.Is(err, ErrCannotPlace) {
				continue
			}
			return nil, Stats{}, err
		}
		replaced++
	}
	gs.flushTelemetry(s.tel)
	sp.Attr("replaced", replaced)

	stats := Stats{InitialProfit: a.Profit()}
	stats.Timings.Greedy = time.Since(tGreedy)
	s.ImproveLocalCtx(ctx, a, &stats)
	stats.FinalProfit = a.Profit()
	stats.Attribution.Initial = stats.InitialProfit
	stats.Attribution.Final = stats.FinalProfit
	stats.Unplaced = s.scen.NumClients() - a.NumAssigned()
	return a, stats, nil
}
