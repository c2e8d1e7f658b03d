package cluster

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestDistributedSolveSingleTraceTree runs a three-agent in-process
// distributed solve with one shared telemetry set and checks the
// tentpole invariant: every span the solve records belongs to one trace
// and is reachable from the manager.solve root by parent links — one
// connected tree spanning the manager and all agents.
func TestDistributedSolveSingleTraceTree(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.NumClients = 15
	cfg.NumClusters = 3
	cfg.Seed = 11
	scen, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	set := telemetry.New(nil)
	agents := make([]Agent, scen.Cloud.NumClusters())
	for k := range agents {
		ccfg := core.DefaultConfig()
		ccfg.Telemetry = set
		ag, err := NewLocalAgent(scen, model.ClusterID(k), ccfg)
		if err != nil {
			t.Fatal(err)
		}
		agents[k] = ag
	}
	mcfg := DefaultManagerConfig()
	mcfg.Telemetry = set
	mgr, err := NewManager(scen, agents, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if _, _, err := mgr.SolveCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	spans := set.Tracer.Snapshot()
	byID := make(map[telemetry.ID]telemetry.SpanRecord, len(spans))
	var root telemetry.SpanRecord
	var roots int
	for _, sp := range spans {
		if sp.SpanID == 0 {
			t.Fatalf("span %q recorded without an ID", sp.Name)
		}
		byID[sp.SpanID] = sp
		if sp.Name == "manager.solve" {
			root = sp
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("want exactly one manager.solve root, got %d", roots)
	}
	if root.ParentID != 0 {
		t.Fatalf("manager.solve has parent %s, want root", root.ParentID)
	}

	// Connectivity: every span belongs to the root's trace and walks up
	// to it. A broken parent link or a second trace ID means the tree
	// fell apart somewhere between manager and agents.
	agentImproves := map[any]bool{}
	for _, sp := range spans {
		if sp.TraceID != root.TraceID {
			t.Fatalf("span %q is in trace %s, want %s (single tree)", sp.Name, sp.TraceID, root.TraceID)
		}
		cur := sp
		for hops := 0; cur.SpanID != root.SpanID; hops++ {
			if hops > len(spans) {
				t.Fatalf("span %q: parent chain does not terminate", sp.Name)
			}
			parent, ok := byID[cur.ParentID]
			if !ok {
				t.Fatalf("span %q: parent %s of %q not in snapshot", sp.Name, cur.ParentID, cur.Name)
			}
			cur = parent
		}
		if sp.Name == "agent.improve" {
			for _, a := range sp.Attrs {
				if a.Key == "cluster" {
					agentImproves[a.Value] = true
				}
			}
		}
	}
	if len(agentImproves) != 3 {
		t.Fatalf("agent.improve spans cover %d clusters, want all 3", len(agentImproves))
	}
}
