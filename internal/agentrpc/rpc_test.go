package agentrpc

import (
	"context"
	"math"
	"net"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

var ctx = context.Background()

// startServer serves cluster k of the scenario on a loopback listener and
// returns a connected RemoteAgent.
func startServer(t *testing.T, scen *model.Scenario, k model.ClusterID) *RemoteAgent {
	t.Helper()
	local, err := cluster.NewLocalAgent(scen, k, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, local)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	remote, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return remote
}

func genScenario(t *testing.T, n int) *model.Scenario {
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

func TestRemoteAgentRoundTrip(t *testing.T) {
	scen := genScenario(t, 10)
	remote := startServer(t, scen, 1)

	if k, err := remote.ClusterID(ctx); err != nil || k != 1 {
		t.Fatalf("ClusterID = %v, %v", k, err)
	}
	bid, err := remote.Evaluate(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bid.Feasible || len(bid.Portions) == 0 {
		t.Fatalf("bid = %+v", bid)
	}
	if err := remote.Commit(ctx, 3, bid.Portions); err != nil {
		t.Fatal(err)
	}
	p, err := remote.Profit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p == 0 {
		t.Fatal("profit should be nonzero after commit")
	}
	snap, err := remote.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	if _, err := remote.Improve(ctx); err != nil {
		t.Fatal(err)
	}
	if err := remote.Remove(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if err := remote.Reset(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteAgentErrorsPropagate(t *testing.T) {
	scen := genScenario(t, 5)
	remote := startServer(t, scen, 0)
	// Committing garbage portions must surface the server-side error.
	bid, err := remote.Evaluate(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := bid.Portions
	bad[0].Alpha = 0.5 // Σα no longer 1
	if err := remote.Commit(ctx, 0, bad[:1]); err == nil {
		t.Fatal("invalid commit accepted remotely")
	}
}

func TestDistributedSolveOverTCP(t *testing.T) {
	scen := genScenario(t, 20)
	agents := make([]cluster.Agent, scen.Cloud.NumClusters())
	for k := range agents {
		agents[k] = startServer(t, scen, model.ClusterID(k))
	}
	mgr, err := cluster.NewManager(scen, agents, cluster.DefaultManagerConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, stats, err := mgr.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NumAssigned() != 20 {
		t.Fatalf("assigned %d of 20", a.NumAssigned())
	}
	if math.Abs(a.Profit()-stats.FinalProfit) > 1e-6 {
		t.Fatalf("profit mismatch: %v vs %v", a.Profit(), stats.FinalProfit)
	}

	// Same seed in-process gives the same answer: the transport must not
	// change the algorithm.
	scen2 := genScenario(t, 20)
	locals := make([]cluster.Agent, scen2.Cloud.NumClusters())
	for k := range locals {
		la, err := cluster.NewLocalAgent(scen2, model.ClusterID(k), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		locals[k] = la
	}
	mgr2, err := cluster.NewManager(scen2, locals, cluster.DefaultManagerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	a2, _, err := mgr2.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Profit()-a2.Profit()) > 1e-9 {
		t.Fatalf("TCP result %v != in-process result %v", a.Profit(), a2.Profit())
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestConcurrentConnectionsSerialize(t *testing.T) {
	scen := genScenario(t, 8)
	local, err := cluster.NewLocalAgent(scen, 0, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, local)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	defer func() {
		srv.Close()
		<-done
	}()

	// Several clients hammer the same agent; the server's mutex must keep
	// the (non-thread-safe) agent consistent.
	const clients = 4
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			remote, err := Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer remote.Close()
			for i := 0; i < 20; i++ {
				if _, err := remote.Evaluate(ctx, 0); err != nil {
					errs <- err
					return
				}
				if _, err := remote.Profit(ctx); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestClientSurvivesServerClose(t *testing.T) {
	scen := genScenario(t, 5)
	remote := startServer(t, scen, 0)
	if _, err := remote.Evaluate(ctx, 0); err != nil {
		t.Fatal(err)
	}
	// Closing the client connection makes further calls fail cleanly.
	if err := remote.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Evaluate(ctx, 0); err == nil {
		t.Fatal("call on closed connection succeeded")
	}
}

func TestServerRejectsGarbageFrames(t *testing.T) {
	scen := genScenario(t, 5)
	local, err := cluster.NewLocalAgent(scen, 0, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, local)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	defer func() {
		srv.Close()
		<-done
	}()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not gob")); err != nil {
		t.Fatal(err)
	}
	// The server must drop the connection without crashing; a healthy
	// client must still be served afterwards.
	remote, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if k, err := remote.ClusterID(ctx); err != nil || k != 0 {
		t.Fatalf("healthy client failed after garbage frame: %v %v", k, err)
	}
}
