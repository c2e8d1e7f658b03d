package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/workload"
)

// ReassignConfig drives the reassignment-pass microbenchmark backing the
// REASSIGN section of EXPERIMENTS.md: one pass over a fresh greedy
// allocation, timed with one and with all scoring workers.
type ReassignConfig struct {
	ClientCounts []int
	Repeats      int
	BaseSeed     int64
	Workload     workload.Config
	Solver       core.Config
}

// DefaultReassignConfig measures the issue's 50/250/1000-client points.
func DefaultReassignConfig() ReassignConfig {
	return ReassignConfig{
		ClientCounts: []int{50, 250, 1000},
		Repeats:      5,
		BaseSeed:     42,
		Workload:     workload.DefaultConfig(),
		Solver:       core.DefaultConfig(),
	}
}

// ReassignRow reports mean single-pass times for one client count.
type ReassignRow struct {
	Clients int `json:"clients"`
	Servers int `json:"servers"`
	// Moves the pass commits on the greedy allocation; it commits the
	// same set for every worker count.
	Moves    int           `json:"moves"`
	Workers1 time.Duration `json:"workers1_ns"`
	Parallel time.Duration `json:"parallel_ns"`
}

// ReassignReport is the machine-readable record written to
// BENCH_reassign.json so later PRs have a perf trajectory to compare
// against.
type ReassignReport struct {
	BenchMeta
	Repeats int           `json:"repeats"`
	Rows    []ReassignRow `json:"rows"`
}

// RunReassign measures one reassignment pass per mode over identical
// greedy allocations.
func RunReassign(cfg ReassignConfig) (*ReassignReport, error) {
	if len(cfg.ClientCounts) == 0 || cfg.Repeats <= 0 {
		return nil, fmt.Errorf("experiment: bad reassign config %+v", cfg)
	}
	report := &ReassignReport{
		BenchMeta: NewBenchMeta(),
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

		mode := func(mutate func(*core.Config)) (*core.Solver, *alloc.Allocation, error) {
			sCfg := cfg.Solver
			mutate(&sCfg)
			s, err := core.NewSolver(scen, sCfg)
			if err != nil {
				return nil, nil, err
			}
			base, err := s.InitialSolution(rand.New(rand.NewSource(1)))
			if err != nil {
				return nil, nil, err
			}
			return s, base, nil
		}
		s1, base1, err := mode(func(c *core.Config) { c.Workers = 1 })
		if err != nil {
			return nil, err
		}
		sN, baseN, err := mode(func(c *core.Config) { c.Workers = 0 })
		if err != nil {
			return nil, err
		}

		row := ReassignRow{Clients: n, Servers: scen.Cloud.NumServers()}
		timePass := func(s *core.Solver, base *alloc.Allocation) (time.Duration, int) {
			var total time.Duration
			var moves int
			for r := 0; r < cfg.Repeats; r++ {
				a := base.Clone()
				start := time.Now()
				moves = s.ReassignmentPassCtx(context.Background(), a)
				total += time.Since(start)
			}
			return total / time.Duration(cfg.Repeats), moves
		}
		row.Workers1, row.Moves = timePass(s1, base1)
		var parMoves int
		row.Parallel, parMoves = timePass(sN, baseN)
		if parMoves != row.Moves {
			return nil, fmt.Errorf("experiment: reassignment nondeterminism at %d clients: %d moves with 1 worker, %d with %d",
				n, row.Moves, parMoves, report.GoMaxProcs)
		}
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}

// ReassignTable renders the report as text.
func ReassignTable(rep *ReassignReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Reassignment pass: 1 vs all scoring workers (GOMAXPROCS=%d, %d CPUs, mean of %d)\n",
		rep.GoMaxProcs, rep.NumCPU, rep.Repeats)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "clients\tservers\tworkers=1\tworkers=max\tmoves")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\n",
			r.Clients, r.Servers,
			r.Workers1.Round(time.Microsecond),
			r.Parallel.Round(time.Microsecond),
			r.Moves)
	}
	w.Flush()
	return b.String()
}

// WriteReassignJSON writes the machine-readable report.
func WriteReassignJSON(w io.Writer, rep *ReassignReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
