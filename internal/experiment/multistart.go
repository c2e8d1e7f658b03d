package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/workload"
)

// MultistartConfig drives the fan-out microbenchmark backing the
// MULTISTART section of EXPERIMENTS.md: the solver's multi-start greedy
// phase and the Monte-Carlo draw loop, each timed with one worker and
// with all workers over identical scenarios.
type MultistartConfig struct {
	ClientCounts []int
	// Starts is the number of greedy initial solutions per solve.
	Starts int
	// MCDraws is the number of Monte-Carlo draws per run.
	MCDraws int
	// MCPasses bounds each draw's reassignment search.
	MCPasses int
	Repeats  int
	BaseSeed int64
	Workload workload.Config
	Solver   core.Config
}

// DefaultMultistartConfig measures the issue's 50/250-client points.
func DefaultMultistartConfig() MultistartConfig {
	return MultistartConfig{
		ClientCounts: []int{50, 250},
		Starts:       8,
		MCDraws:      32,
		MCPasses:     3,
		Repeats:      3,
		BaseSeed:     42,
		Workload:     workload.DefaultConfig(),
		Solver:       core.DefaultConfig(),
	}
}

// MultistartRow reports mean wall-clock times for one client count.
type MultistartRow struct {
	Clients int `json:"clients"`
	Servers int `json:"servers"`
	// Multi-start greedy phase (local search disabled to isolate it).
	SolveWorkers1 time.Duration `json:"solve_workers1_ns"`
	SolveParallel time.Duration `json:"solve_parallel_ns"`
	SolveSpeedup  float64       `json:"solve_speedup"`
	// Monte-Carlo draw loop.
	MCWorkers1 time.Duration `json:"mc_workers1_ns"`
	MCParallel time.Duration `json:"mc_parallel_ns"`
	MCSpeedup  float64       `json:"mc_speedup"`
	// Profits cross-checked between worker counts; recorded for the
	// perf-trajectory file.
	InitialProfit float64 `json:"initial_profit"`
	MCBestProfit  float64 `json:"mc_best_profit"`
}

// MultistartReport is the machine-readable record written to
// BENCH_multistart.json so later PRs have a perf trajectory to compare
// against.
type MultistartReport struct {
	BenchMeta
	Starts  int             `json:"starts"`
	MCDraws int             `json:"mc_draws"`
	Repeats int             `json:"repeats"`
	Rows    []MultistartRow `json:"rows"`
}

// RunMultistart times the two fan-outs with one worker and with
// GOMAXPROCS workers over identical scenarios, and fails loudly if the
// worker count changes any profit — the fan-out determinism contract,
// checked here on benchmark-scale inputs.
func RunMultistart(cfg MultistartConfig) (*MultistartReport, error) {
	if len(cfg.ClientCounts) == 0 || cfg.Repeats <= 0 || cfg.Starts <= 0 || cfg.MCDraws <= 0 {
		return nil, fmt.Errorf("experiment: bad multistart config %+v", cfg)
	}
	report := &MultistartReport{
		BenchMeta: NewBenchMeta(),
		Starts:    cfg.Starts,
		MCDraws:   cfg.MCDraws,
		Repeats:   cfg.Repeats,
	}
	for _, n := range cfg.ClientCounts {
		wcfg := cfg.Workload
		wcfg.NumClients = n
		wcfg.Seed = cfg.BaseSeed + int64(n)
		scen, err := workload.Generate(wcfg)
		if err != nil {
			return nil, err
		}
		row := MultistartRow{Clients: n, Servers: scen.Cloud.NumServers()}

		// Multi-start greedy phase, isolated from the local search.
		timeSolve := func(workers int) (time.Duration, float64, error) {
			sCfg := cfg.Solver
			sCfg.NumInitSolutions = cfg.Starts
			sCfg.MaxLocalSearchIters = 0
			sCfg.Workers = workers
			s, err := core.NewSolver(scen, sCfg)
			if err != nil {
				return 0, 0, err
			}
			var total time.Duration
			var profit float64
			for r := 0; r < cfg.Repeats; r++ {
				start := time.Now()
				_, stats, err := s.SolveCtx(context.Background())
				if err != nil {
					return 0, 0, err
				}
				total += time.Since(start)
				profit = stats.InitialProfit
			}
			return total / time.Duration(cfg.Repeats), profit, nil
		}
		var p1, pN float64
		if row.SolveWorkers1, p1, err = timeSolve(1); err != nil {
			return nil, err
		}
		if row.SolveParallel, pN, err = timeSolve(0); err != nil {
			return nil, err
		}
		if p1 != pN {
			return nil, fmt.Errorf("experiment: multi-start nondeterminism at %d clients: profit %v with 1 worker, %v with %d",
				n, p1, pN, report.GoMaxProcs)
		}
		row.InitialProfit = p1
		if row.SolveParallel > 0 {
			row.SolveSpeedup = float64(row.SolveWorkers1) / float64(row.SolveParallel)
		}

		// Monte-Carlo draw loop.
		timeMC := func(workers int) (time.Duration, float64, error) {
			mcCfg := baseline.MCConfig{
				Draws:           cfg.MCDraws,
				Seed:            cfg.BaseSeed,
				MaxSearchPasses: cfg.MCPasses,
				Workers:         workers,
				Solver:          cfg.Solver,
			}
			var total time.Duration
			var best float64
			for r := 0; r < cfg.Repeats; r++ {
				start := time.Now()
				env, err := baseline.RunMonteCarlo(scen, mcCfg)
				if err != nil {
					return 0, 0, err
				}
				total += time.Since(start)
				best = env.BestOptimized
			}
			return total / time.Duration(cfg.Repeats), best, nil
		}
		var b1, bN float64
		if row.MCWorkers1, b1, err = timeMC(1); err != nil {
			return nil, err
		}
		if row.MCParallel, bN, err = timeMC(0); err != nil {
			return nil, err
		}
		if b1 != bN {
			return nil, fmt.Errorf("experiment: Monte-Carlo nondeterminism at %d clients: best %v with 1 worker, %v with %d",
				n, b1, bN, report.GoMaxProcs)
		}
		row.MCBestProfit = b1
		if row.MCParallel > 0 {
			row.MCSpeedup = float64(row.MCWorkers1) / float64(row.MCParallel)
		}
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}

// MultistartTable renders the report as text.
func MultistartTable(rep *MultistartReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fan-out: multi-start (%d starts) and Monte-Carlo (%d draws), workers=1 vs max (GOMAXPROCS=%d, %d CPUs, mean of %d)\n",
		rep.Starts, rep.MCDraws, rep.GoMaxProcs, rep.NumCPU, rep.Repeats)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "clients\tservers\tsolve w=1\tsolve w=max\tspeedup\tmc w=1\tmc w=max\tspeedup")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%.2fx\t%s\t%s\t%.2fx\n",
			r.Clients, r.Servers,
			r.SolveWorkers1.Round(time.Microsecond),
			r.SolveParallel.Round(time.Microsecond),
			r.SolveSpeedup,
			r.MCWorkers1.Round(time.Microsecond),
			r.MCParallel.Round(time.Microsecond),
			r.MCSpeedup)
	}
	w.Flush()
	return b.String()
}

// WriteMultistartJSON writes the machine-readable report.
func WriteMultistartJSON(w io.Writer, rep *MultistartReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
