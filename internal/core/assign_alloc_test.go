package core

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/telemetry"
)

// TestAssignDistributeAllocFree pins the scratch-backed solver paths:
// after warm-up, Assign_Distribute against a reassignment view and the
// exact path's pricing scan of every cluster allocate nothing, and a
// whole exact-path placeBest allocates only the allocation's own copy of
// the placed portions (alloc.Allocation.Assign).
func TestAssignDistributeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	scen := smallScenario(t, 30, 5)
	s := newTestSolver(t, scen, nil)
	a, err := s.InitialSolution(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	i := model.ClientID(3)
	if !a.Assigned(i) {
		t.Fatalf("client %d unplaced", i)
	}
	numK := scen.Cloud.NumClusters()

	view := a.Excluding(i)
	var scr distScratch
	assign := func() {
		for k := 0; k < numK; k++ {
			_, _, _ = s.assignDistribute(&view, i, model.ClusterID(k), nil, &scr)
		}
	}
	assign()
	if n := testing.AllocsPerRun(20, assign); n != 0 {
		t.Fatalf("assignDistribute: %v allocations per run, want 0", n)
	}

	a.Unassign(i)
	gs := s.newGreedyState(a, nil, telemetry.TraceRef{})
	place := func() {
		if err := s.placeBest(a, i, gs); err != nil {
			t.Fatal(err)
		}
		a.Unassign(i)
	}
	place()
	scan := func() {
		for idx := 0; idx < numK; idx++ {
			s.evalCluster(a, i, gs, idx, &gs.dist)
		}
	}
	if n := testing.AllocsPerRun(20, scan); n != 0 {
		t.Fatalf("placeBest pricing scan: %v allocations per run, want 0", n)
	}
	if n := testing.AllocsPerRun(20, place); n > 1 {
		t.Fatalf("placeBest: %v allocations per run, want at most Assign's copy of the portions", n)
	}
}
