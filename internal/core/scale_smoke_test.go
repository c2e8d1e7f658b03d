package core

import (
	"context"
	"math"
	"os"
	"testing"

	"repro/internal/workload"
)

// TestScaleSmoke10k is the CI scale smoke check (set SCALE_SMOKE=1): a
// 10k-client instance must solve within the job timeout, and the k=K
// exactness fallback must reproduce the unpruned solver's profit to
// within 1e-6 — at k=K the dispatch routes to the same exact scan, so
// any difference means the fallback contract broke. Runs without the
// race detector: at this size -race multiplies wall time without adding
// coverage beyond the small -race equivalence tests.
func TestScaleSmoke10k(t *testing.T) {
	if os.Getenv("SCALE_SMOKE") == "" {
		t.Skip("set SCALE_SMOKE=1 to run (CI scale smoke job)")
	}
	if raceEnabled {
		t.Skip("scale smoke runs with -race off")
	}
	scen, err := workload.Generate(workload.ScaleConfig(10_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	numK := scen.Cloud.NumClusters()
	mk := func(k int) (float64, int) {
		s := newTestSolver(t, scen, func(c *Config) {
			c.NumInitSolutions = 1
			c.MaxLocalSearchIters = 1
			c.AlphaGranularity = 6
			c.Shards = numK / 8
			c.CandidateClusters = k
		})
		a, st, err := s.SolveCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		return st.FinalProfit, st.Unplaced
	}
	exact, exactUnplaced := mk(0)
	atK, atKUnplaced := mk(numK)
	if diff := math.Abs(exact - atK); diff > 1e-6*(1+math.Abs(exact)) {
		t.Fatalf("k=K profit %v differs from unpruned %v by %v", atK, exact, diff)
	}
	if exactUnplaced != atKUnplaced {
		t.Fatalf("k=K unplaced %d vs unpruned %d", atKUnplaced, exactUnplaced)
	}
	t.Logf("10k clients: profit %.2f, %d unplaced", exact, exactUnplaced)
}
