package experiment

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/workload"
)

// AblationConfig drives the heuristic-phase ablation study (extension:
// quantifies how much each Resource_Alloc phase contributes).
type AblationConfig struct {
	Clients   int
	Scenarios int
	BaseSeed  int64
	Workload  workload.Config
	Solver    core.Config
}

// DefaultAblationConfig ablates on 10 mid-size scenarios.
func DefaultAblationConfig() AblationConfig {
	return AblationConfig{
		Clients:   80,
		Scenarios: 10,
		BaseSeed:  1,
		Workload:  workload.DefaultConfig(),
		Solver:    core.DefaultConfig(),
	}
}

// AblationRow is the mean profit of one solver variant relative to the
// full configuration.
type AblationRow struct {
	Variant    string
	MeanProfit float64
	Relative   float64 // vs the full solver
}

// variant mutates a solver config for one ablation arm.
type variant struct {
	name   string
	mutate func(*core.Config)
}

func ablationVariants() []variant {
	return []variant{
		{name: "full", mutate: func(*core.Config) {}},
		{name: "no-share-adjust", mutate: func(c *core.Config) { c.DisableShareAdjust = true }},
		{name: "no-dispersion-adjust", mutate: func(c *core.Config) { c.DisableDispersionAdjust = true }},
		{name: "no-turn-on", mutate: func(c *core.Config) { c.DisableTurnOn = true }},
		{name: "no-turn-off", mutate: func(c *core.Config) { c.DisableTurnOff = true }},
		{name: "no-reassign", mutate: func(c *core.Config) { c.DisableReassign = true }},
		{name: "no-local-search", mutate: func(c *core.Config) {
			c.DisableShareAdjust = true
			c.DisableDispersionAdjust = true
			c.DisableTurnOn = true
			c.DisableTurnOff = true
			c.DisableReassign = true
		}},
		{name: "single-init", mutate: func(c *core.Config) { c.NumInitSolutions = 1 }},
		{name: "coarse-alpha (G=4)", mutate: func(c *core.Config) { c.AlphaGranularity = 4 }},
		{name: "fine-alpha (G=20)", mutate: func(c *core.Config) { c.AlphaGranularity = 20 }},
		{name: "stingy-shares (η×4)", mutate: func(c *core.Config) { c.ShadowPriceScale = 4 }},
		{name: "generous-shares (η÷4)", mutate: func(c *core.Config) { c.ShadowPriceScale = 0.25 }},
	}
}

// RunAblation evaluates every solver variant on the same scenario set.
func RunAblation(cfg AblationConfig) ([]AblationRow, error) {
	if cfg.Clients <= 0 || cfg.Scenarios <= 0 {
		return nil, fmt.Errorf("experiment: bad ablation config %+v", cfg)
	}
	variants := ablationVariants()
	sums := make([]float64, len(variants))
	for s := 0; s < cfg.Scenarios; s++ {
		wcfg := cfg.Workload
		wcfg.NumClients = cfg.Clients
		wcfg.Seed = cfg.BaseSeed + int64(s)
		scen, err := workload.Generate(wcfg)
		if err != nil {
			return nil, err
		}
		for vi, v := range variants {
			sCfg := cfg.Solver
			v.mutate(&sCfg)
			solver, err := core.NewSolver(scen, sCfg)
			if err != nil {
				return nil, err
			}
			a, _, err := solver.SolveCtx(context.Background())
			if err != nil {
				return nil, err
			}
			sums[vi] += a.Profit()
		}
	}
	rows := make([]AblationRow, len(variants))
	full := sums[0] / float64(cfg.Scenarios)
	for vi, v := range variants {
		mean := sums[vi] / float64(cfg.Scenarios)
		rows[vi] = AblationRow{Variant: v.name, MeanProfit: mean}
		if full != 0 {
			rows[vi].Relative = mean / full
		}
	}
	return rows, nil
}

// AblationTable renders the ablation rows as text.
func AblationTable(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablation: mean profit of solver variants (relative to full)\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "variant\tmeanProfit\trelative")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%.3f\n", r.Variant, r.MeanProfit, r.Relative)
	}
	w.Flush()
	return b.String()
}
