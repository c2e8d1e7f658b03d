package chaos_test

import (
	"context"
	"errors"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agentrpc"
	"repro/internal/alloc"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func genScenario(t testing.TB, n int) *model.Scenario {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.NumClients = n
	cfg.Seed = 7
	scen, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return scen
}

// faultFreeSolve is the reference: the same manager config over
// in-process local agents. TCP transport equality (within float
// round-off) is already covered by the agentrpc tests, so any drift
// beyond 1e-9 in a chaos run means a fault corrupted agent state.
func faultFreeSolve(t testing.TB, scen *model.Scenario, mcfg cluster.ManagerConfig) (float64, cluster.ManagerStats) {
	t.Helper()
	agents := make([]cluster.Agent, scen.Cloud.NumClusters())
	for k := range agents {
		la, err := cluster.NewLocalAgent(scen, model.ClusterID(k), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		agents[k] = la
	}
	mgr, err := cluster.NewManager(scen, agents, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	a, stats, err := mgr.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return a.Profit(), stats
}

// startChaosServer serves one local agent behind a fault-injecting
// listener and returns the listener for crash control.
func startChaosServer(t testing.TB, scen *model.Scenario, k model.ClusterID, seed int64, perConn func(int) chaos.Faults, opts ...agentrpc.Option) (*chaos.Listener, string) {
	t.Helper()
	la, err := cluster.NewLocalAgent(scen, k, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := chaos.NewListener(l, seed+int64(k), perConn)
	srv := agentrpc.NewServer(cl, la, opts...)
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return cl, l.Addr().String()
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Abs(b))
}

// TestCrashMidRoundConverges is the headline chaos regression: with a
// ~10% per-I/O fault mix on every connection AND one agent
// crash-restart mid-solve, the distributed solve converges to the
// fault-free profit within float round-off and the attribution identity
// still holds.
func TestCrashMidRoundConverges(t *testing.T) {
	scen := genScenario(t, 10)
	mcfg := cluster.DefaultManagerConfig()

	refProfit, refStats := faultFreeSolve(t, scen, mcfg)

	faults := chaos.Faults{
		DropProb:  0.03,
		ErrProb:   0.03,
		DelayProb: 0.03,
		Delay:     time.Millisecond,
		TruncProb: 0.02,
	}
	perConn := func(int) chaos.Faults { return faults }
	pol := agentrpc.DefaultPolicy()
	pol.Timeout = 5 * time.Second
	pol.MaxAttempts = 16
	pol.BackoffBase = time.Millisecond
	pol.BackoffMax = 20 * time.Millisecond
	pol.Seed = 13

	agents := make([]cluster.Agent, scen.Cloud.NumClusters())
	var crashTarget *chaos.Listener
	for k := range agents {
		cl, addr := startChaosServer(t, scen, model.ClusterID(k), 99, perConn)
		if k == 0 {
			crashTarget = cl
		}
		ra, err := agentrpc.Dial(addr, agentrpc.WithPolicy(pol))
		if err != nil {
			t.Fatal(err)
		}
		agents[k] = ra
	}
	// Arm a crash-restart of agent 0 mid-solve: after 50 more reads on
	// its connections, every conn dies and dials are refused for 30ms.
	crashTarget.CrashAfterReads(50, 30*time.Millisecond)

	mgr, err := cluster.NewManager(scen, agents, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	a, stats, err := mgr.SolveCtx(context.Background())
	if err != nil {
		t.Fatalf("chaos solve failed: %v", err)
	}
	if d := relDiff(a.Profit(), refProfit); d > 1e-9 {
		t.Fatalf("chaos profit %.12f vs fault-free %.12f (rel diff %.3e)", a.Profit(), refProfit, d)
	}
	at := stats.Attribution
	if got := at.Initial + at.Improve + at.CentralReassign; math.Abs(got-at.Final) > 1e-6*(1+math.Abs(at.Final)) {
		t.Fatalf("attribution identity broken: %v sums to %.12f", at, got)
	}
	if d := relDiff(stats.FinalProfit, refStats.FinalProfit); d > 1e-9 {
		t.Fatalf("stats profit %.12f vs fault-free %.12f", stats.FinalProfit, refStats.FinalProfit)
	}
	if crashTarget.Stats().Crashes != 1 {
		t.Fatalf("crash never fired (stats %+v)", crashTarget.Stats())
	}
}

// TestSlowConnHedgeWins: the first connection is pathologically slow
// (every I/O op stalls 150ms); with hedging enabled a read-only call
// races a second, clean connection and the hedge wins.
func TestSlowConnHedgeWins(t *testing.T) {
	scen := genScenario(t, 5)
	perConn := func(conn int) chaos.Faults {
		if conn == 0 {
			return chaos.Faults{DelayProb: 1, Delay: 150 * time.Millisecond}
		}
		return chaos.Faults{}
	}
	_, addr := startChaosServer(t, scen, 0, 5, perConn)

	set := telemetry.New(nil)
	pol := agentrpc.DefaultPolicy()
	pol.HedgeDelay = 10 * time.Millisecond
	pol.Seed = 3
	ra, err := agentrpc.Dial(addr, agentrpc.WithPolicy(pol), agentrpc.WithTelemetry(set))
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	if _, err := ra.Profit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := set.Counter("rpc_client_hedges_total").Value(); got < 1 {
		t.Fatalf("no hedge launched (hedges=%d)", got)
	}
	if got := set.Counter("rpc_client_hedge_wins_total").Value(); got < 1 {
		t.Fatalf("hedge launched but never won against a 150ms-per-op conn")
	}
}

// commitCrashAgent applies Commit on the inner agent, then crashes the
// listener once — the canonical ambiguous failure: op applied, response
// lost. The retried Commit must be answered from the dedup cache, not
// re-applied.
type commitCrashAgent struct {
	cluster.Agent
	ln      *chaos.Listener
	commits atomic.Int64
	crashed atomic.Bool
}

func (c *commitCrashAgent) Commit(ctx context.Context, id model.ClientID, p []alloc.Portion) error {
	err := c.Agent.Commit(ctx, id, p)
	c.commits.Add(1)
	if err == nil && !c.crashed.Swap(true) {
		c.ln.Crash(0) // kill the conn before the response can be written
	}
	return err
}

func TestRetryAfterAmbiguousCommitIsIdempotent(t *testing.T) {
	scen := genScenario(t, 5)
	la, err := cluster.NewLocalAgent(scen, 0, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := chaos.NewListener(l, 1, nil)
	hook := &commitCrashAgent{Agent: la, ln: cl}
	srvSet := telemetry.New(nil)
	srv := agentrpc.NewServer(cl, hook, agentrpc.WithTelemetry(srvSet))
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })

	pol := agentrpc.DefaultPolicy()
	pol.BackoffBase = time.Millisecond
	pol.Seed = 17
	ra, err := agentrpc.Dial(l.Addr().String(), agentrpc.WithPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	ctx := context.Background()
	bid, err := ra.Evaluate(ctx, 0)
	if err != nil || !bid.Feasible {
		t.Fatalf("evaluate: feasible=%v err=%v", bid.Feasible, err)
	}
	// The commit is applied server-side, the response is lost to the
	// crash, and the client's retry must succeed via the dedup cache.
	if err := ra.Commit(ctx, 0, bid.Portions); err != nil {
		t.Fatalf("commit after ambiguous failure: %v", err)
	}
	if got := hook.commits.Load(); got != 1 {
		t.Fatalf("commit applied %d times, want exactly 1", got)
	}
	if got := srvSet.Counter("rpc_server_dedup_hits_total").Value(); got != 1 {
		t.Fatalf("rpc_server_dedup_hits_total = %d, want 1", got)
	}
	snap, err := ra.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d clients, want 1", len(snap))
	}
	if _, ok := snap[0]; !ok {
		t.Fatalf("client 0 missing from snapshot %v", snap)
	}
}

// TestFlakyAgentDeterministic: the same (seed, idx) wrap produces the
// same fault sequence — the replayability every chaos schedule rests on.
func TestFlakyAgentDeterministic(t *testing.T) {
	run := func() []bool {
		inner := &nopAgent{}
		fa := chaos.WrapAgent(inner, chaos.AgentFaults{ErrProb: 0.5}, 23, 4)
		out := make([]bool, 100)
		for i := range out {
			out[i] = fa.Reset(context.Background()) != nil
		}
		return out
	}
	a, b := run(), run()
	var errs int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical seeds", i)
		}
		if a[i] {
			errs++
		}
	}
	if errs == 0 || errs == len(a) {
		t.Fatalf("degenerate fault sequence: %d/%d errors", errs, len(a))
	}
	if !errors.Is(chaosErr(t), chaos.ErrInjected) {
		t.Fatal("injected error does not unwrap to ErrInjected")
	}
}

func chaosErr(t *testing.T) error {
	t.Helper()
	fa := chaos.WrapAgent(&nopAgent{}, chaos.AgentFaults{ErrProb: 1}, 1, 1)
	return fa.Reset(context.Background())
}

// nopAgent is the minimal inner agent for wrapper unit tests.
type nopAgent struct{}

func (nopAgent) ClusterID(context.Context) (model.ClusterID, error) { return 0, nil }
func (nopAgent) Reset(context.Context) error                        { return nil }
func (nopAgent) Evaluate(context.Context, model.ClientID) (cluster.EvalResult, error) {
	return cluster.EvalResult{}, nil
}
func (nopAgent) Commit(context.Context, model.ClientID, []alloc.Portion) error { return nil }
func (nopAgent) Remove(context.Context, model.ClientID) error                  { return nil }
func (nopAgent) Improve(context.Context) (cluster.ImproveStats, error) {
	return cluster.ImproveStats{}, nil
}
func (nopAgent) Profit(context.Context) (float64, error) { return 0, nil }
func (nopAgent) Snapshot(context.Context) (map[model.ClientID][]alloc.Portion, error) {
	return nil, nil
}
func (nopAgent) Close() error { return nil }

// TestCrashWindowRefusesDials: connections during the down window die
// instantly; after it passes, service resumes.
func TestCrashWindowRefusesDials(t *testing.T) {
	scen := genScenario(t, 5)
	cl, addr := startChaosServer(t, scen, 0, 2, nil)
	pol := agentrpc.DefaultPolicy()
	pol.BackoffBase = 5 * time.Millisecond
	pol.BackoffMax = 50 * time.Millisecond
	pol.MaxAttempts = 10
	pol.Seed = 29
	ra, err := agentrpc.Dial(addr, agentrpc.WithPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	if _, err := ra.Profit(context.Background()); err != nil {
		t.Fatal(err)
	}
	cl.Crash(40 * time.Millisecond)
	// The retry loop rides out the down window transparently.
	if _, err := ra.Profit(context.Background()); err != nil {
		t.Fatalf("call across crash-restart: %v", err)
	}
	if cl.Stats().Crashes != 1 {
		t.Fatalf("stats %+v", cl.Stats())
	}
}
