package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

// TestSolveInvariantsProperty: on random paper-shaped instances, Solve
// always returns a feasible allocation whose profit the local search did
// not regress, with consistent stats.
func TestSolveInvariantsProperty(t *testing.T) {
	f := func(seed int64, nClients uint8) bool {
		cfg := workload.DefaultConfig()
		cfg.Seed = seed
		cfg.NumClients = 5 + int(nClients)%30
		cfg.MinServersPerCluster = 4
		cfg.MaxServersPerCluster = 8
		scen, err := workload.Generate(cfg)
		if err != nil {
			return false
		}
		solver, err := NewSolver(scen, DefaultConfig())
		if err != nil {
			return false
		}
		a, stats, err := solver.SolveCtx(context.Background())
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := a.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if stats.FinalProfit < stats.InitialProfit-1e-9 {
			t.Logf("seed %d: regression %v -> %v", seed, stats.InitialProfit, stats.FinalProfit)
			return false
		}
		if math.Abs(a.Profit()-stats.FinalProfit) > 1e-9 {
			return false
		}
		if a.NumAssigned()+stats.Unplaced != scen.NumClients() {
			return false
		}
		// Every assigned client must have a finite response time and its
		// dispersion rates summing to 1 (constraint 6), which Validate
		// checked; additionally no client should sit on an inactive server.
		for j := 0; j < scen.Cloud.NumServers(); j++ {
			id := scen.Cloud.Servers[j].ID
			if len(a.ClientsOn(id)) > 0 != a.Active(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyShareProperty: the closed-form share always sits strictly
// above the stability floor and within the available budget, and grows
// with the delay weight.
func TestGreedyShareProperty(t *testing.T) {
	f := func(wRaw, execRaw, rateRaw, capRaw, etaRaw, availRaw float64) bool {
		w := math.Abs(wRaw)
		exec := 0.1 + math.Mod(math.Abs(execRaw), 1)
		rate := math.Mod(math.Abs(rateRaw), 3)
		capC := 1 + math.Mod(math.Abs(capRaw), 5)
		eta := 0.01 + math.Mod(math.Abs(etaRaw), 10)
		avail := math.Mod(math.Abs(availRaw), 1)
		phi, ok := greedyShare(w, exec, rate, capC, eta, avail)
		floor := rate * exec / capC
		if !ok {
			// Infeasible means the floor (plus margin) does not fit.
			return floor*(1+1e-6)+1e-12 >= avail
		}
		if phi <= floor || phi > avail {
			return false
		}
		// More weight never shrinks the share.
		phi2, ok2 := greedyShare(w*2, exec, rate, capC, eta, avail)
		return ok2 && phi2 >= phi-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPricesPositiveProperty: calibration always yields positive finite
// shadow prices.
func TestPricesPositiveProperty(t *testing.T) {
	f := func(seed int64, scaleRaw uint8) bool {
		cfg := workload.DefaultConfig()
		cfg.Seed = seed
		cfg.NumClients = 1 + int(scaleRaw)%80
		scen, err := workload.Generate(cfg)
		if err != nil {
			return false
		}
		pr := calibratePrices(scen, 1)
		return pr.proc > 0 && pr.comm > 0 &&
			!math.IsInf(pr.proc, 0) && !math.IsInf(pr.comm, 0) &&
			!math.IsNaN(pr.proc) && !math.IsNaN(pr.comm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
