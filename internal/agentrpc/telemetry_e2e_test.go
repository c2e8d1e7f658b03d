package agentrpc

import (
	"context"
	"net"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// TestDistributedSolveTelemetry runs a full manager + TCP-agents solve
// with telemetry enabled end to end and checks that every layer actually
// reported: client- and server-side RPC latency histograms, byte
// counters, solver phase spans on the agent side, and manager round
// spans on the manager side.
func TestDistributedSolveTelemetry(t *testing.T) {
	scen := genScenario(t, 20)

	// One telemetry set per allocd-like process, one for the manager side.
	mgrTel := telemetry.New(nil)
	agentTel := telemetry.New(nil)

	agents := make([]cluster.Agent, scen.Cloud.NumClusters())
	for k := range agents {
		cfg := core.DefaultConfig()
		cfg.Telemetry = agentTel
		local, err := cluster.NewLocalAgent(scen, model.ClusterID(k), cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := serveWith(t, local, agentTel)
		remote, err := Dial(srv.Addr().String(), WithTelemetry(mgrTel))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { remote.Close() })
		agents[k] = remote
	}

	mcfg := cluster.DefaultManagerConfig()
	mcfg.Telemetry = mgrTel
	mgr, err := cluster.NewManager(scen, agents, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	a, stats, err := mgr.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumAssigned() != 20 {
		t.Fatalf("assigned %d of 20", a.NumAssigned())
	}

	// Client-side RPC metrics: evaluate is called for every client on
	// every cluster, so its latency histogram must have entries.
	evalLat := mgrTel.Histogram(telemetry.Name("rpc_client_latency_seconds", "op", "evaluate"), telemetry.DurationBuckets)
	if evalLat.Count() == 0 {
		t.Fatal("client-side evaluate latency histogram is empty")
	}
	if got := mgrTel.Counter("rpc_client_bytes_sent_total").Value(); got == 0 {
		t.Fatal("client sent zero bytes according to telemetry")
	}
	if got := mgrTel.Counter(telemetry.Name("rpc_client_errors_total", "op", "evaluate")).Value(); got != 0 {
		t.Fatalf("unexpected client-side evaluate errors: %d", got)
	}

	// Server-side mirror.
	srvCalls := agentTel.Counter(telemetry.Name("rpc_server_calls_total", "op", "evaluate"))
	if srvCalls.Value() == 0 {
		t.Fatal("server-side evaluate call counter is zero")
	}
	if got := agentTel.Counter("rpc_server_bytes_received_total").Value(); got == 0 {
		t.Fatal("server received zero bytes according to telemetry")
	}

	// Manager spans: the solve and at least one improvement round.
	mgrSpans := spanNames(mgrTel)
	for _, want := range []string{"manager.solve", "manager.initial_pass", "rpc.evaluate"} {
		if !mgrSpans[want] {
			t.Fatalf("manager trace is missing %q spans (have %v)", want, keys(mgrSpans))
		}
	}
	if stats.ImproveRounds > 0 && !mgrSpans["manager.improve_round"] {
		t.Fatal("manager trace has no improve_round span despite rounds > 0")
	}

	// Agent spans: the RPC handler and the solver's cluster-local phases
	// (share adjustment runs inside every Improve call).
	agentSpans := spanNames(agentTel)
	for _, want := range []string{"rpc.evaluate", "rpc.improve"} {
		if !agentSpans[want] {
			t.Fatalf("agent trace is missing %q spans (have %v)", want, keys(agentSpans))
		}
	}

	// The tentpole invariant across the RPC boundary: the manager's and
	// the agents' tracers are separate rings (separate processes in real
	// deployments), yet the trace context riding the wire request must
	// stitch their spans into ONE tree rooted at manager.solve.
	union := append(mgrTel.Tracer.Snapshot(), agentTel.Tracer.Snapshot()...)
	byID := make(map[telemetry.ID]telemetry.SpanRecord, len(union))
	var root telemetry.SpanRecord
	var roots int
	for _, sp := range union {
		if sp.SpanID != 0 {
			byID[sp.SpanID] = sp
		}
		if sp.Name == "manager.solve" {
			root, roots = sp, roots+1
		}
	}
	if roots != 1 {
		t.Fatalf("want one manager.solve root, got %d", roots)
	}
	var agentSideInTrace int
	for _, sp := range agentTel.Tracer.Snapshot() {
		if sp.TraceID == root.TraceID {
			agentSideInTrace++
		}
	}
	if agentSideInTrace == 0 {
		t.Fatal("no agent-side span joined the manager's trace: TraceRef did not cross the RPC boundary")
	}
	for _, sp := range union {
		if sp.TraceID != root.TraceID {
			continue // e.g. pre-solve cluster_id RPCs traced before the root opened
		}
		cur := sp
		for hops := 0; cur.SpanID != root.SpanID; hops++ {
			if hops > len(union) {
				t.Fatalf("span %q: parent chain does not terminate at the root", sp.Name)
			}
			parent, ok := byID[cur.ParentID]
			if !ok {
				t.Fatalf("span %q: parent %s of %q missing from both tracers", sp.Name, cur.ParentID, cur.Name)
			}
			cur = parent
		}
	}

	// Per-round timing satellite: the manager stats expose what the
	// round spans measure.
	if len(stats.RoundDurations) != stats.ImproveRounds {
		t.Fatalf("RoundDurations has %d entries for %d rounds", len(stats.RoundDurations), stats.ImproveRounds)
	}
	if stats.InitElapsed <= 0 {
		t.Fatal("InitElapsed not recorded")
	}

	// The Prometheus exposition of the manager registry must contain the
	// RPC histogram family with non-zero counts.
	var sb strings.Builder
	mgrTel.Metrics.WritePrometheus(&sb)
	text := sb.String()
	if !strings.Contains(text, `rpc_client_latency_seconds_bucket{op="evaluate",le="+Inf"}`) {
		t.Fatalf("Prometheus text lacks evaluate latency buckets:\n%s", text)
	}
}

// TestSolverPhaseSpans checks that a plain (non-distributed) solve with
// telemetry produces the per-phase spans the tracing tentpole promises.
func TestSolverPhaseSpans(t *testing.T) {
	scen := genScenario(t, 15)
	cfg := core.DefaultConfig()
	set := telemetry.New(nil)
	cfg.Telemetry = set
	solver, err := core.NewSolver(scen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := solver.SolveCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	spans := spanNames(set)
	for _, want := range []string{"solver.solve", "solver.greedy", "solver.round"} {
		if !spans[want] {
			t.Fatalf("solver trace is missing %q spans (have %v)", want, keys(spans))
		}
	}
	if set.Histogram(telemetry.Name("solver_phase_seconds", "phase", "share_adjust"), telemetry.DurationBuckets).Count() == 0 {
		t.Fatal("share_adjust phase histogram is empty")
	}
	if set.Counter("solver_solves_total").Value() != 1 {
		t.Fatal("solver_solves_total != 1")
	}
}

// serveWith starts a telemetry-instrumented server for the agent.
func serveWith(t *testing.T, ag cluster.Agent, set *telemetry.Set) *Server {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, ag, WithTelemetry(set))
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv
}

func spanNames(set *telemetry.Set) map[string]bool {
	out := make(map[string]bool)
	for _, r := range set.Tracer.Snapshot() {
		out[r.Name] = true
	}
	return out
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
