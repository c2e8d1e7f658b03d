package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agentrpc"
	"repro/internal/alloc"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// pairedScenario is the paper's cloud with the servers matched to the
// population, at about 2.5 servers per client as cmd/onlinebench sizes
// it: profit then depends on placement, not on which share of an
// oversubscribed population is turned away.
func pairedScenario(clients, clusters int, seed int64) (*model.Scenario, error) {
	cfg := workload.DefaultConfig()
	cfg.NumClients = clients
	cfg.NumClusters = clusters
	cfg.Seed = seed
	if per := clients * 5 / (2 * clusters); per > cfg.MaxServersPerCluster {
		cfg.MinServersPerCluster = per
		cfg.MaxServersPerCluster = per
	}
	return workload.Generate(cfg)
}

// managerConfig is the wire probe's manager: the defaults with one
// in-flight agent call per CPU.
func managerConfig(seed int64) cluster.ManagerConfig {
	c := cluster.DefaultManagerConfig()
	c.Seed = seed
	c.MaxInFlight = runtime.GOMAXPROCS(0)
	return c
}

// tcpCloud is one cluster.LocalAgent per cluster, each behind an
// agentrpc server on a loopback port, dialed by the manager.
type tcpCloud struct {
	servers []*agentrpc.Server
	served  sync.WaitGroup
	agents  []cluster.Agent // the dialed agents, wrapped when traced
	mgr     *cluster.Manager
}

// startTCP builds a tcpCloud; w, when non-nil, wraps both sides of every
// agent and the listeners.
func startTCP(scen *model.Scenario, mcfg cluster.ManagerConfig, w *wireTrace) (*tcpCloud, error) {
	c := &tcpCloud{}
	for k := 0; k < scen.Cloud.NumClusters(); k++ {
		la, err := cluster.NewLocalAgent(scen, model.ClusterID(k), core.DefaultConfig())
		if err != nil {
			return nil, errors.Join(err, c.close())
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(err, c.close())
		}
		var served cluster.Agent = la
		if w != nil {
			served = w.wrap(k, la, "cluster")
			l = &countingListener{Listener: l, n: &w.bytes}
		}
		srv := agentrpc.NewServer(l, served)
		c.servers = append(c.servers, srv)
		c.served.Add(1)
		go func() {
			defer c.served.Done()
			_ = srv.Serve() // returns when close closes the listener
		}()
		ra, err := agentrpc.Dial(l.Addr().String())
		if err != nil {
			return nil, errors.Join(err, c.close())
		}
		var ag cluster.Agent = ra
		if w != nil {
			ag = w.wrap(k, ra, "agentrpc")
		}
		c.agents = append(c.agents, ag)
	}
	mgr, err := cluster.NewManager(scen, c.agents, mcfg)
	if err != nil {
		return nil, errors.Join(err, c.close())
	}
	c.mgr = mgr
	return c, nil
}

// close closes the dialed agents, then the servers, and waits for every
// server goroutine to return.
func (c *tcpCloud) close() error {
	var errs []error
	for _, ag := range c.agents {
		errs = append(errs, ag.Close())
	}
	for _, srv := range c.servers {
		errs = append(errs, srv.Close())
	}
	c.served.Wait()
	return errors.Join(errs...)
}

// checkManagerSolve runs the output checks of one distributed solve.
func checkManagerSolve(a *alloc.Allocation, st cluster.ManagerStats) error {
	if err := checkAllocation(a, nil); err != nil {
		return err
	}
	if !near(st.FinalProfit, a.Profit(), 1e-9) {
		return fmt.Errorf("manager reports profit %v, merged allocation %v", st.FinalProfit, a.Profit())
	}
	at := st.Attribution
	if r := at.Final - at.Initial - at.Improve - at.CentralReassign; math.Abs(r) > 1e-6*(1+math.Abs(at.Final)) {
		return fmt.Errorf("manager attribution residual %v of final %v", r, at.Final)
	}
	return nil
}

// probeWire measures the agentrpc and cluster layers on the
// distributed-tcp shape: the paper cloud of pairedScenario(clients, 5)
// with one cluster.LocalAgent per cluster behind an agentrpc server on a
// loopback port, solved by a cluster.Manager with one in-flight call per
// CPU. It makes a warm-up and an untraced solve over TCP, one with a
// single call in flight, one with in-process agents, and one with the
// benchmark's wrappers on both sides of the wire; all must give the same
// profit.
//
// The distributed solve is a probe, not a workload: between identical
// runs its wall time drifted with the host's load by up to 32%
// (interquartile range over the median of ten runs), beyond any bound
// an end-to-end metric may have.
func probeWire(ctx context.Context, r *runner, clients int) (err error) {
	scen, err := pairedScenario(clients, wireClusters, r.opts.instance)
	if err != nil {
		return err
	}
	mcfg := managerConfig(r.opts.instance)
	plain, err := startTCP(scen, mcfg, nil)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, plain.close()) }()
	a, st, err := plain.mgr.SolveCtx(ctx) // warm-up
	r.chk.op(err)
	if err != nil {
		return err
	}
	r.chk.fail(checkManagerSolve(a, st))
	runtime.GC()
	t0 := time.Now()
	ua, ust, err := plain.mgr.SolveCtx(ctx)
	tcp := time.Since(t0)
	r.chk.op(err)
	if err != nil {
		return err
	}
	r.chk.fail(checkManagerSolve(ua, ust))
	r.chk.fail(sameBits("wire probe profit", st.FinalProfit, ust.FinalProfit))
	r.set("cluster.init_pass_s", "s", seconds(ust.InitElapsed), 0)

	// One agent call in flight at a time: the same profit.
	m1cfg := mcfg
	m1cfg.MaxInFlight = 1
	mgr1, err := cluster.NewManager(scen, plain.agents, m1cfg)
	if err != nil {
		return err
	}
	_, st1, err := mgr1.SolveCtx(ctx)
	r.chk.op(err)
	if err != nil {
		return err
	}
	r.chk.fail(sameBits("MaxInFlight=1 vs GOMAXPROCS profit", st.FinalProfit, st1.FinalProfit))

	// The same solve without the wire.
	local := make([]cluster.Agent, scen.Cloud.NumClusters())
	for k := range local {
		if local[k], err = cluster.NewLocalAgent(scen, model.ClusterID(k), core.DefaultConfig()); err != nil {
			return err
		}
	}
	lm, err := cluster.NewManager(scen, local, mcfg)
	if err != nil {
		return err
	}
	runtime.GC()
	tl := time.Now()
	_, lst, err := lm.SolveCtx(ctx)
	inproc := time.Since(tl)
	r.chk.op(err)
	if err != nil {
		return err
	}
	r.chk.fail(sameBits("TCP vs in-process profit", st.FinalProfit, lst.FinalProfit))
	r.set("agentrpc.wire_share", "frac", 1-seconds(inproc)/seconds(tcp), 0)

	// The traced solve: both sides of every agent call in spans, every
	// byte on the wire counted.
	w := &wireTrace{tr: r.tr, inCall: make([]atomic.Uint64, scen.Cloud.NumClusters())}
	traced, err := startTCP(scen, mcfg, w)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, traced.close()) }()
	b0 := w.bytes.Load()
	solve := r.tr.root("cluster.solve")
	w.solve.Store(solve.id)
	ta, tst, err := traced.mgr.SolveCtx(ctx)
	solve.end()
	r.chk.op(err)
	if err != nil {
		return err
	}
	r.chk.fail(checkManagerSolve(ta, tst))
	r.chk.fail(sameBits("traced vs untraced profit", st.FinalProfit, tst.FinalProfit))
	r.set("agentrpc.bytes", "B", float64(w.bytes.Load()-b0), 0)
	for _, op := range agentOps {
		r.set("agentrpc.calls."+op, "count", float64(len(r.tr.spansOf(solve.op, "agentrpc."+op))), 0)
	}
	client := sortedCopy(r.tr.spansOf(solve.op, "agentrpc.evaluate"))
	server := sortedCopy(r.tr.spansOf(solve.op, "cluster.evaluate"))
	r.set("agentrpc.evaluate_client_us_p50", "us", quantile(client, 0.5)/1e3, len(client))
	r.set("agentrpc.evaluate_client_us_p99", "us", quantile(client, 0.99)/1e3, len(client))
	r.set("cluster.evaluate_server_us_p50", "us", quantile(server, 0.5)/1e3, len(server))
	return nil
}

// wireClusters is the cluster count, and the agent count, of the wire
// probe's cloud.
const wireClusters = 5

// agentOps are the cluster.Agent calls, named as agentrpc names them.
var agentOps = []string{"cluster_id", "reset", "evaluate", "commit", "remove", "improve", "profit", "snapshot"}

// setIdleWire records the wire metrics of a workload that does not cross
// agentrpc: the layer did no work.
func setIdleWire(r *runner) {
	for _, op := range agentOps {
		r.set("agentrpc.calls."+op, "count", 0, 0)
	}
	r.set("agentrpc.bytes", "B", 0, 0)
	r.set("agentrpc.evaluate_client_us_p50", "us", 0, 0)
	r.set("agentrpc.evaluate_client_us_p99", "us", 0, 0)
	r.set("cluster.evaluate_server_us_p50", "us", 0, 0)
	r.set("agentrpc.wire_share", "frac", 0, 0)
	r.set("cluster.init_pass_s", "s", 0, 0)
}

// wireTrace links the spans of a traced distributed solve. Each
// manager-side agent call opens an agentrpc.<op> span under the solve;
// the agent-side call it causes opens a cluster.<op> span under that.
// The manager makes at most one call to an agent at a time, so the open
// manager-side span of agent k is the parent of agent k's server span.
type wireTrace struct {
	tr     *tracer
	solve  atomic.Uint64   // id (and operation) of the solve span
	inCall []atomic.Uint64 // per agent: the open manager-side span
	bytes  atomic.Int64    // bytes read and written by the servers
}

func (w *wireTrace) wrap(k int, ag cluster.Agent, side string) cluster.Agent {
	return &tracedAgent{Agent: ag, w: w, k: k, side: side}
}

// tracedAgent wraps a cluster.Agent in spans.
type tracedAgent struct {
	cluster.Agent
	w    *wireTrace
	k    int
	side string // "agentrpc" (manager side) or "cluster" (agent side)
}

func (t *tracedAgent) span(op string) active {
	solve := t.w.solve.Load()
	if t.side == "agentrpc" {
		sp := t.w.tr.childOf(solve, solve, "agentrpc."+op)
		t.w.inCall[t.k].Store(sp.id)
		return sp
	}
	return t.w.tr.childOf(t.w.inCall[t.k].Load(), solve, "cluster."+op)
}

func (t *tracedAgent) ClusterID(ctx context.Context) (model.ClusterID, error) {
	defer t.span("cluster_id").end()
	return t.Agent.ClusterID(ctx)
}

func (t *tracedAgent) Reset(ctx context.Context) error {
	defer t.span("reset").end()
	return t.Agent.Reset(ctx)
}

func (t *tracedAgent) Evaluate(ctx context.Context, id model.ClientID) (cluster.EvalResult, error) {
	defer t.span("evaluate").end()
	return t.Agent.Evaluate(ctx, id)
}

func (t *tracedAgent) Commit(ctx context.Context, id model.ClientID, portions []alloc.Portion) error {
	defer t.span("commit").end()
	return t.Agent.Commit(ctx, id, portions)
}

func (t *tracedAgent) Remove(ctx context.Context, id model.ClientID) error {
	defer t.span("remove").end()
	return t.Agent.Remove(ctx, id)
}

func (t *tracedAgent) Improve(ctx context.Context) (cluster.ImproveStats, error) {
	defer t.span("improve").end()
	return t.Agent.Improve(ctx)
}

func (t *tracedAgent) Profit(ctx context.Context) (float64, error) {
	defer t.span("profit").end()
	return t.Agent.Profit(ctx)
}

func (t *tracedAgent) Snapshot(ctx context.Context) (map[model.ClientID][]alloc.Portion, error) {
	defer t.span("snapshot").end()
	return t.Agent.Snapshot(ctx)
}

// countingListener counts the bytes its connections read and write.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
