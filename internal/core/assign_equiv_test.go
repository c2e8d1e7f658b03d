package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/workload"
)

// reductionCounts tallies what the reduced Assign_Distribute would leave
// out of the reference DP or share between servers, so each test can
// check it exercised the case it names.
type reductionCounts struct {
	calls       int
	deadActive  int // saturated active servers
	deadDisk    int // disk-infeasible servers
	sharedLive  int // live servers whose row equals an earlier server's in the call
	cannotPlace int
}

// referenceAssignDistribute is Assign_Distribute without the row
// reduction or the row memo: every allowed server of the cluster is
// tabulated on its own and enters the DP, dead rows included, in cluster
// order.
func referenceAssignDistribute(s *Solver, v placementView, i model.ClientID, k model.ClusterID,
	allowed func(model.ServerID) bool, counts *reductionCounts) (float64, []alloc.Portion, error) {
	cloud := &s.scen.Cloud
	cl := &s.scen.Clients[i]
	u := s.scen.Utility(i)
	w := cl.ArrivalRate * u.Slope
	g := s.cfg.AlphaGranularity
	var rows []distRow
	var servers []model.ServerID
	seen := make(map[candidateKey]bool)
	for _, j := range cloud.ClusterServers(k) {
		if allowed != nil && !allowed(j) {
			continue
		}
		class := &cloud.ServerClasses[cloud.Servers[j].Class]
		row := distRow{
			key: candidateKey{
				class:  class.ID,
				availP: 1 - v.ProcShareUsed(j),
				availB: 1 - v.CommShareUsed(j),
				diskOK: v.DiskUsed(j)+cl.DiskNeed <= class.StoreCap,
				active: v.Active(j),
			},
			values: make([]float64, g+1),
			shareP: make([]float64, g+1),
			shareB: make([]float64, g+1),
		}
		s.tabulateServer(&row, cl, u, w, class, g)
		switch {
		case row.last == 0 && !row.key.diskOK:
			counts.deadDisk++
		case row.last == 0 && row.key.active:
			counts.deadActive++
		case row.last > 0 && seen[row.key]:
			counts.sharedLive++
		}
		seen[row.key] = true
		rows = append(rows, row)
		servers = append(servers, j)
	}
	counts.calls++
	if len(rows) == 0 {
		counts.cannotPlace++
		return 0, nil, ErrCannotPlace
	}
	values := make([][]float64, len(rows))
	for r := range rows {
		values[r] = rows[r].values
	}
	best, units, err := opt.CombinePortions(values, g)
	if errors.Is(err, opt.ErrNoFeasibleCombination) {
		counts.cannotPlace++
		return 0, nil, ErrCannotPlace
	} else if err != nil {
		return 0, nil, err
	}
	var portions []alloc.Portion
	for r, ug := range units {
		if ug == 0 {
			continue
		}
		portions = append(portions, alloc.Portion{
			Server:    servers[r],
			Alpha:     float64(ug) / float64(g),
			ProcShare: rows[r].shareP[ug],
			CommShare: rows[r].shareB[ug],
		})
	}
	return best, portions, nil
}

// checkReducedEquiv fails unless the reduced assignDistribute, run in the
// shared scratch, matches the reference bit for bit: the same error, the
// same estimate bits, and the same portions (servers, α, φ).
func checkReducedEquiv(t *testing.T, s *Solver, v placementView, i model.ClientID, k model.ClusterID,
	allowed func(model.ServerID) bool, scr *distScratch, counts *reductionCounts) {
	t.Helper()
	wantEst, wantP, wantErr := referenceAssignDistribute(s, v, i, k, allowed, counts)
	gotEst, gotP, gotErr := s.assignDistribute(v, i, k, allowed, scr)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && !errors.Is(gotErr, ErrCannotPlace)) {
		t.Fatalf("client %d cluster %d: err %v, reference %v", i, k, gotErr, wantErr)
	}
	if math.Float64bits(gotEst) != math.Float64bits(wantEst) {
		t.Fatalf("client %d cluster %d: estimate %v, reference %v", i, k, gotEst, wantEst)
	}
	if len(gotP) != len(wantP) {
		t.Fatalf("client %d cluster %d: portions %+v, reference %+v", i, k, gotP, wantP)
	}
	for p := range gotP {
		if gotP[p] != wantP[p] {
			t.Fatalf("client %d cluster %d: portion %d %+v, reference %+v", i, k, p, gotP[p], wantP[p])
		}
	}
}

// checkAllPlacements compares every (client, cluster) evaluation on a:
// unassigned clients against the live allocation, assigned ones against
// the view without them, and, for every server an assigned client uses,
// the TurnOFF evaluation that excludes that server.
func checkAllPlacements(t *testing.T, s *Solver, a *alloc.Allocation, scr *distScratch, counts *reductionCounts) {
	t.Helper()
	for ci := range s.scen.Clients {
		i := model.ClientID(ci)
		var v placementView = a
		if a.Assigned(i) {
			view := a.Excluding(i)
			v = &view
			k := model.ClusterID(a.ClusterOf(i))
			for _, p := range a.Portions(i) {
				j := p.Server
				checkReducedEquiv(t, s, v, i, k, func(srv model.ServerID) bool { return srv != j }, scr, counts)
			}
		}
		for k := 0; k < s.scen.Cloud.NumClusters(); k++ {
			checkReducedEquiv(t, s, v, i, model.ClusterID(k), nil, scr, counts)
		}
	}
}

// TestAssignDistributeReducedEquiv checks the reduced DP against the
// full-row reference on random instances of the property-test shape, at
// three stages of a solve: the empty allocation, a greedy start and the
// locally improved solution. Loaded instances (many clients on few
// servers) saturate servers; enlarged disk needs make whole server
// classes disk-infeasible for some clients.
func TestAssignDistributeReducedEquiv(t *testing.T) {
	var counts reductionCounts
	var scr distScratch
	for seed := int64(1); seed <= 8; seed++ {
		cfg := workload.DefaultConfig()
		cfg.Seed = seed
		cfg.NumClients = 10 + int(seed)*6
		cfg.MinServersPerCluster = 4
		cfg.MaxServersPerCluster = 8
		scen, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for ci := range scen.Clients {
			if rng.Intn(4) == 0 {
				scen.Clients[ci].DiskNeed *= 8
			}
		}
		s := newTestSolver(t, scen, func(c *Config) { c.AlphaGranularity = 4 + int(seed)%7 })
		checkAllPlacements(t, s, alloc.New(scen), &scr, &counts)
		a, err := s.InitialSolution(rng)
		if err != nil {
			t.Fatal(err)
		}
		checkAllPlacements(t, s, a, &scr, &counts)
		s.ImproveLocalCtx(context.Background(), a, nil)
		checkAllPlacements(t, s, a, &scr, &counts)
	}
	t.Logf("%+v", counts)
	if counts.deadActive == 0 || counts.deadDisk == 0 || counts.cannotPlace == 0 {
		t.Fatalf("a reduction case was not exercised: %+v", counts)
	}
}

// TestAssignDistributeReducedEquivIdenticalServers covers many identical
// inactive servers sharing one memoized row: clusters of one server
// class, more servers than grid units, priced empty and after a greedy
// start has activated some of their servers.
func TestAssignDistributeReducedEquivIdenticalServers(t *testing.T) {
	var counts reductionCounts
	var scr distScratch
	for _, g := range []int{1, 3, 10} {
		cfg := workload.DefaultConfig()
		cfg.Seed = int64(g)
		cfg.NumClients = 40
		cfg.NumClusters = 3
		cfg.NumServerClasses = 1
		cfg.MinServersPerCluster = 24
		cfg.MaxServersPerCluster = 30
		scen, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := newTestSolver(t, scen, func(c *Config) { c.AlphaGranularity = g })
		checkAllPlacements(t, s, alloc.New(scen), &scr, &counts)
		a, err := s.InitialSolution(rand.New(rand.NewSource(int64(g))))
		if err != nil {
			t.Fatal(err)
		}
		checkAllPlacements(t, s, a, &scr, &counts)
	}
	t.Logf("%+v", counts)
	if counts.sharedLive == 0 || counts.deadActive == 0 {
		t.Fatalf("no shared live row or no saturated server: %+v", counts)
	}
}

// TestAssignDistributeReducedNothingFeasible: when no server can take
// the client, or the filter allows none, both DPs report ErrCannotPlace.
func TestAssignDistributeReducedNothingFeasible(t *testing.T) {
	scen := smallScenario(t, 6, 3)
	scen.Clients[0].DiskNeed = 1e9
	s := newTestSolver(t, scen, nil)
	a := alloc.New(scen)
	var counts reductionCounts
	var scr distScratch
	none := func(model.ServerID) bool { return false }
	for k := 0; k < scen.Cloud.NumClusters(); k++ {
		checkReducedEquiv(t, s, a, 0, model.ClusterID(k), nil, &scr, &counts)
		checkReducedEquiv(t, s, a, 1, model.ClusterID(k), none, &scr, &counts)
	}
	if counts.cannotPlace != counts.calls {
		t.Fatalf("expected every call to be unplaceable: %+v", counts)
	}
}

// fakeView is a placementView with arbitrary per-server state, so a test
// can make servers of one class agree on some key fields and differ on
// others.
type fakeView struct {
	proc, comm, disk []float64
	active           []bool
}

func (f *fakeView) ProcShareUsed(j model.ServerID) float64 { return f.proc[j] }
func (f *fakeView) CommShareUsed(j model.ServerID) float64 { return f.comm[j] }
func (f *fakeView) DiskUsed(j model.ServerID) float64      { return f.disk[j] }
func (f *fakeView) Active(j model.ServerID) bool           { return f.active[j] }

// TestAssignDistributeReducedEquivNearKeys checks that the row memo only
// shares a row between equal keys: in one-class clusters, each server's
// used shares, disk and activity are drawn from a few values, so servers
// often match on some key fields but not on all of them.
func TestAssignDistributeReducedEquivNearKeys(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Seed = 5
	cfg.NumClients = 12
	cfg.NumClusters = 2
	cfg.NumServerClasses = 1
	cfg.MinServersPerCluster = 16
	cfg.MaxServersPerCluster = 16
	scen, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSolver(t, scen, nil)
	n := scen.Cloud.NumServers()
	storeCap := scen.Cloud.ServerClasses[0].StoreCap
	rng := rand.New(rand.NewSource(5))
	var counts reductionCounts
	var scr distScratch
	for trial := 0; trial < 20; trial++ {
		f := &fakeView{make([]float64, n), make([]float64, n), make([]float64, n), make([]bool, n)}
		for j := 0; j < n; j++ {
			f.active[j] = rng.Intn(2) == 0
			if f.active[j] {
				f.proc[j] = []float64{0, 0.3}[rng.Intn(2)]
				f.comm[j] = []float64{0, 0.3, 0.6}[rng.Intn(3)]
				f.disk[j] = []float64{0, storeCap}[rng.Intn(2)]
			}
		}
		for ci := range scen.Clients {
			for k := 0; k < scen.Cloud.NumClusters(); k++ {
				checkReducedEquiv(t, s, f, model.ClientID(ci), model.ClusterID(k), nil, &scr, &counts)
			}
		}
	}
	t.Logf("%+v", counts)
	if counts.sharedLive == 0 || counts.deadDisk == 0 {
		t.Fatalf("no shared live row or no disk-infeasible server: %+v", counts)
	}
}
