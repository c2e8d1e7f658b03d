// Command loadtest is the chaos proving ground for the distributed
// control plane: it spawns one in-process agent per cluster behind real
// TCP listeners, runs the distributed solve under seeded fault
// schedules (connection drops, injected I/O errors, delays, truncated
// frames, one agent crash-restart) and asserts the solve converges to
// the fault-free profit. Retry/hedge/redial/dedup traffic is recorded
// through the telemetry layer into BENCH_faults.json.
//
// Exit status is non-zero when any fault schedule fails to converge —
// the CI smoke gate for ROADMAP item 3.
//
// Usage:
//
//	loadtest -clients 40 -clusters 5 -rate 0.12 -out BENCH_faults.json
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"time"

	"repro/internal/agentrpc"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadtest:", err)
		os.Exit(1)
	}
}

type config struct {
	clients  int
	clusters int
	seed     int64
	rate     float64
	delay    time.Duration
	// crashAfterReads arms the mixed schedule's one-shot crash-restart
	// of agent 0 after that many server-side reads; crashDown is the
	// refuse-dials window.
	crashAfterReads int64
	crashDown       time.Duration
	hedge           time.Duration
	attempts        int
	timeout         time.Duration
	out             string
	table           bool
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	var cfg config
	fs.IntVar(&cfg.clients, "clients", 40, "clients in the generated scenario")
	fs.IntVar(&cfg.clusters, "clusters", 5, "clusters (= agents) in the generated scenario")
	fs.Int64Var(&cfg.seed, "seed", 1, "master seed: workload, manager order, fault schedule, retry jitter")
	fs.Float64Var(&cfg.rate, "rate", 0.12, "per-I/O-op fault probability of the mixed schedule (split across drop/error/delay/truncate)")
	fs.DurationVar(&cfg.delay, "delay", 2*time.Millisecond, "injected delay length")
	fs.Int64Var(&cfg.crashAfterReads, "crash-after-reads", 60, "crash-restart agent 0 after this many server-side reads (0 disables)")
	fs.DurationVar(&cfg.crashDown, "crash-down", 50*time.Millisecond, "crash-restart down window")
	fs.DurationVar(&cfg.hedge, "hedge", 5*time.Millisecond, "hedge delay of the slow-agent schedule")
	fs.IntVar(&cfg.attempts, "retries", 16, "max attempts per RPC")
	fs.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "per-attempt RPC deadline")
	fs.StringVar(&cfg.out, "out", "", "write the FaultsReport JSON here (e.g. BENCH_faults.json)")
	fs.BoolVar(&cfg.table, "table", true, "print the human-readable table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, failed, err := execute(cfg)
	if err != nil {
		return err
	}
	if cfg.table {
		fmt.Fprint(stdout, experiment.FaultsTable(rep))
	}
	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiment.WriteFaultsJSON(f, rep); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("one or more fault schedules did not converge to the fault-free profit")
	}
	return nil
}

// schedule is one chaos configuration to solve under.
type schedule struct {
	name    string
	faults  func(agent int, conn int) chaos.Faults
	crash   bool // arm crash-restart of agent 0
	hedge   time.Duration
	rate    float64
	baseRef bool // this run defines the reference profit
}

func execute(cfg config) (*experiment.FaultsReport, bool, error) {
	wcfg := workload.DefaultConfig()
	wcfg.NumClients = cfg.clients
	wcfg.NumClusters = cfg.clusters
	wcfg.Seed = cfg.seed
	scen, err := workload.Generate(wcfg)
	if err != nil {
		return nil, false, err
	}

	// The mixed schedule's band split: 30/30/30/10 drop/err/delay/trunc.
	mixed := chaos.Faults{
		DropProb:  cfg.rate * 0.3,
		ErrProb:   cfg.rate * 0.3,
		DelayProb: cfg.rate * 0.3,
		Delay:     cfg.delay,
		TruncProb: cfg.rate * 0.1,
	}
	schedules := []schedule{
		{name: "baseline", faults: nil, baseRef: true},
		{name: "mixed+crash", rate: cfg.rate, crash: cfg.crashAfterReads > 0,
			faults: func(int, int) chaos.Faults { return mixed }},
		{name: "slow+hedge", hedge: cfg.hedge,
			// Agent 0's first connection stalls every I/O op long enough
			// that hedging onto a fresh connection always pays.
			faults: func(agent, conn int) chaos.Faults {
				if agent == 0 && conn == 0 {
					return chaos.Faults{DelayProb: 1, Delay: 50 * time.Millisecond}
				}
				return chaos.Faults{}
			}},
	}

	rep := &experiment.FaultsReport{BenchMeta: experiment.NewBenchMeta()}
	var refProfit float64
	failed := false
	for _, sch := range schedules {
		row, err := runSchedule(scen, cfg, sch, refProfit)
		if err != nil {
			return nil, false, fmt.Errorf("schedule %s: %w", sch.name, err)
		}
		if sch.baseRef {
			refProfit = row.Profit
			row.RefProfit = refProfit
			row.Converged = true
		}
		if !row.Converged {
			failed = true
		}
		rep.Rows = append(rep.Rows, *row)
	}
	return rep, failed, nil
}

func runSchedule(scen *model.Scenario, cfg config, sch schedule, refProfit float64) (*experiment.FaultsRow, error) {
	clientSet := telemetry.New(nil)
	serverSet := telemetry.New(nil)

	pol := agentrpc.DefaultPolicy()
	pol.Timeout = cfg.timeout
	pol.MaxAttempts = cfg.attempts
	pol.BackoffBase = time.Millisecond
	pol.BackoffMax = 50 * time.Millisecond
	pol.HedgeDelay = sch.hedge
	pol.Seed = cfg.seed

	agents := make([]cluster.Agent, scen.Cloud.NumClusters())
	listeners := make([]*chaos.Listener, len(agents))
	servers := make([]*agentrpc.Server, len(agents))
	defer func() {
		for _, ag := range agents {
			if ag != nil {
				ag.Close()
			}
		}
		for _, srv := range servers {
			if srv != nil {
				srv.Close()
			}
		}
	}()
	for k := range agents {
		la, err := cluster.NewLocalAgent(scen, model.ClusterID(k), core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		var perConn func(int) chaos.Faults
		if sch.faults != nil {
			agentIdx := k
			perConn = func(conn int) chaos.Faults { return sch.faults(agentIdx, conn) }
		}
		cl := chaos.NewListener(l, cfg.seed+int64(k), perConn)
		listeners[k] = cl
		srv := agentrpc.NewServer(cl, la, agentrpc.WithTelemetry(serverSet))
		servers[k] = srv
		go srv.Serve()
		ra, err := agentrpc.Dial(l.Addr().String(), agentrpc.WithPolicy(pol), agentrpc.WithTelemetry(clientSet))
		if err != nil {
			return nil, err
		}
		agents[k] = ra
	}
	if sch.crash {
		listeners[0].CrashAfterReads(cfg.crashAfterReads, cfg.crashDown)
	}

	mcfg := cluster.DefaultManagerConfig()
	mcfg.Seed = cfg.seed
	mgr, err := cluster.NewManager(scen, agents, mcfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	a, stats, err := mgr.SolveCtx(context.Background())
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(t0)

	var injected chaos.Stats
	for _, cl := range listeners {
		s := cl.Stats()
		injected.Drops += s.Drops
		injected.Errs += s.Errs
		injected.Delays += s.Delays
		injected.Truncs += s.Truncs
		injected.Crashes += s.Crashes
	}
	row := &experiment.FaultsRow{
		Schedule:       sch.name,
		Clients:        scen.NumClients(),
		Clusters:       scen.Cloud.NumClusters(),
		Seed:           cfg.seed,
		FaultRate:      sch.rate,
		Crashes:        injected.Crashes,
		Profit:         a.Profit(),
		RefProfit:      refProfit,
		Unplaced:       stats.Unplaced,
		Rounds:         stats.ImproveRounds,
		Elapsed:        elapsed,
		Retries:        clientSet.Counter("rpc_client_retries_total").Value(),
		Redials:        clientSet.Counter("rpc_client_redials_total").Value(),
		Hedges:         clientSet.Counter("rpc_client_hedges_total").Value(),
		HedgeWins:      clientSet.Counter("rpc_client_hedge_wins_total").Value(),
		DedupHits:      serverSet.Counter("rpc_server_dedup_hits_total").Value(),
		InjectedDrops:  injected.Drops,
		InjectedErrs:   injected.Errs,
		InjectedDelays: injected.Delays,
		InjectedTruncs: injected.Truncs,
	}
	for _, op := range []string{"cluster_id", "reset", "evaluate", "commit", "remove", "improve", "profit", "snapshot"} {
		row.Calls += clientSet.Counter(telemetry.Name("rpc_client_calls_total", "op", op)).Value()
		row.CallErrs += clientSet.Counter(telemetry.Name("rpc_client_errors_total", "op", op)).Value()
	}
	if elapsed > 0 {
		row.RoundsPerSec = float64(row.Rounds) / elapsed.Seconds()
	}
	if refProfit != 0 {
		row.RelProfitGap = math.Abs(row.Profit-refProfit) / math.Max(1, math.Abs(refProfit))
		row.Converged = row.RelProfitGap <= 1e-9
	}
	return row, nil
}
