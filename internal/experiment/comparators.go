package experiment

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// ComparatorConfig drives the solver-quality-vs-time comparison across
// every implemented method (extension of Figure 4: the paper only shows
// PS and the Monte-Carlo envelope; we add the stochastic optimizers it
// names in Section V).
type ComparatorConfig struct {
	Clients   int
	Scenarios int
	BaseSeed  int64
	Workload  workload.Config
	Solver    core.Config
	PS        baseline.PSConfig
	MC        baseline.MCConfig
	SA        baseline.SAConfig
	GA        baseline.GAConfig
}

// DefaultComparatorConfig compares on 5 mid-size scenarios.
func DefaultComparatorConfig() ComparatorConfig {
	mc := baseline.DefaultMCConfig()
	mc.Draws = 100
	return ComparatorConfig{
		Clients:   60,
		Scenarios: 5,
		BaseSeed:  1,
		Workload:  workload.DefaultConfig(),
		Solver:    core.DefaultConfig(),
		PS:        baseline.DefaultPSConfig(),
		MC:        mc,
		SA:        baseline.DefaultSAConfig(),
		GA:        baseline.DefaultGAConfig(),
	}
}

// ComparatorRow is one method's mean performance.
type ComparatorRow struct {
	Method     string
	MeanProfit float64
	Relative   float64 // vs the proposed heuristic
	MeanTime   time.Duration
}

// RunComparators evaluates every method on the same scenario set.
func RunComparators(cfg ComparatorConfig) ([]ComparatorRow, error) {
	if cfg.Clients <= 0 || cfg.Scenarios <= 0 {
		return nil, fmt.Errorf("experiment: bad comparator config %+v", cfg)
	}
	type method struct {
		name string
		run  func(*model.Scenario, int64) (float64, error)
	}
	methods := []method{
		{name: "proposed (Resource_Alloc)", run: func(s *model.Scenario, seed int64) (float64, error) {
			sc := cfg.Solver
			sc.Seed = seed
			solver, err := core.NewSolver(s, sc)
			if err != nil {
				return 0, err
			}
			a, _, err := solver.SolveCtx(context.Background())
			if err != nil {
				return 0, err
			}
			return a.Profit(), nil
		}},
		{name: "modified PS", run: func(s *model.Scenario, _ int64) (float64, error) {
			a, err := baseline.SolveModifiedPS(s, cfg.PS)
			if err != nil {
				return 0, err
			}
			return a.Profit(), nil
		}},
		{name: "monte carlo (best)", run: func(s *model.Scenario, seed int64) (float64, error) {
			mc := cfg.MC
			mc.Seed = seed
			env, err := baseline.RunMonteCarlo(s, mc)
			if err != nil {
				return 0, err
			}
			return env.BestOptimized, nil
		}},
		{name: "simulated annealing", run: func(s *model.Scenario, seed int64) (float64, error) {
			sa := cfg.SA
			sa.Seed = seed
			a, err := baseline.SolveAnnealing(s, sa)
			if err != nil {
				return 0, err
			}
			return a.Profit(), nil
		}},
		{name: "genetic search", run: func(s *model.Scenario, seed int64) (float64, error) {
			ga := cfg.GA
			ga.Seed = seed
			a, err := baseline.SolveGenetic(s, ga)
			if err != nil {
				return 0, err
			}
			return a.Profit(), nil
		}},
	}

	sums := make([]float64, len(methods))
	times := make([]time.Duration, len(methods))
	for sc := 0; sc < cfg.Scenarios; sc++ {
		wcfg := cfg.Workload
		wcfg.NumClients = cfg.Clients
		wcfg.Seed = cfg.BaseSeed + int64(sc)
		scen, err := workload.Generate(wcfg)
		if err != nil {
			return nil, err
		}
		for mi, m := range methods {
			start := time.Now()
			p, err := m.run(scen, wcfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("experiment: %s on seed %d: %w", m.name, wcfg.Seed, err)
			}
			times[mi] += time.Since(start)
			sums[mi] += p
		}
	}
	rows := make([]ComparatorRow, len(methods))
	ref := sums[0] / float64(cfg.Scenarios)
	for mi, m := range methods {
		mean := sums[mi] / float64(cfg.Scenarios)
		rows[mi] = ComparatorRow{
			Method:     m.name,
			MeanProfit: mean,
			MeanTime:   times[mi] / time.Duration(cfg.Scenarios),
		}
		if ref != 0 {
			rows[mi].Relative = mean / ref
		}
	}
	return rows, nil
}

// ComparatorTable renders the comparison as text.
func ComparatorTable(rows []ComparatorRow) string {
	var b strings.Builder
	b.WriteString("Comparators: mean profit and decision time per method\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "method\tmeanProfit\tvs proposed\tmeanTime")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%.3f\t%s\n", r.Method, r.MeanProfit, r.Relative,
			r.MeanTime.Round(time.Millisecond))
	}
	w.Flush()
	return b.String()
}
