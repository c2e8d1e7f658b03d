// Package multitier extends the allocator to multi-tier applications —
// the paper's declared future work ("the model will be expanded to
// deployment of complex multi-tier applications"). A request of an app
// traverses its tiers in sequence (web → app → database …); response
// times are additive across tiers, and the SLA utility applies to the
// end-to-end response time.
//
// Because every request visits every tier exactly once, each tier sees a
// Poisson stream with the app's arrival rate, and the end-to-end delay is
// Σ_t R_t. The true objective slope on each tier's delay is therefore the
// app's slope b: the package compiles each app into one pseudo-client per
// tier (slope b, base a/T), solves the compiled scenario with the
// standard Resource_Alloc heuristic, and re-aggregates exact app-level
// profit (clipping the utility at the app level, where it belongs).
package multitier

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
)

// Tier is one stage of an application's request path.
type Tier struct {
	// ProcTime and CommTime are the tier's mean execution times per unit
	// resource; DiskNeed is its storage reservation.
	ProcTime float64
	CommTime float64
	DiskNeed float64
}

// App is a multi-tier application with an SLA on its end-to-end response
// time: revenue per request is max(0, Base − Slope·ΣR_t).
type App struct {
	ID            int
	Base          float64
	Slope         float64
	ArrivalRate   float64
	PredictedRate float64
	Tiers         []Tier
}

// Validate checks the app's parameters.
func (a App) Validate() error {
	if len(a.Tiers) == 0 {
		return fmt.Errorf("multitier: app %d has no tiers", a.ID)
	}
	if a.ArrivalRate <= 0 || a.PredictedRate <= 0 {
		return fmt.Errorf("multitier: app %d has non-positive rates", a.ID)
	}
	if a.Base < 0 || a.Slope < 0 {
		return fmt.Errorf("multitier: app %d has negative utility parameters", a.ID)
	}
	for t, tier := range a.Tiers {
		if tier.ProcTime <= 0 || tier.CommTime <= 0 || tier.DiskNeed < 0 {
			return fmt.Errorf("multitier: app %d tier %d invalid: %+v", a.ID, t, tier)
		}
	}
	return nil
}

// Config tunes the multi-tier solve.
type Config struct {
	Solver core.Config
}

// DefaultConfig uses the standard solver settings.
func DefaultConfig() Config { return Config{Solver: core.DefaultConfig()} }

// TierPlacement reports where one tier of an app landed.
type TierPlacement struct {
	App      int
	Tier     int
	Cluster  model.ClusterID
	Response float64
	Portions []alloc.Portion
}

// Solution is the result of a multi-tier solve.
type Solution struct {
	// Alloc is the allocation of the compiled per-tier scenario.
	Alloc *alloc.Allocation
	// Compiled is the derived single-tier scenario.
	Compiled *model.Scenario
	// Placements lists every placed (app, tier).
	Placements []TierPlacement
	// AppResponse is each app's end-to-end mean response time (indexed
	// like the input apps); NaN-free: unplaced tiers make the app
	// unserved instead.
	AppResponse []float64
	// AppRevenue is each app's exact revenue (utility clipped at the app
	// level).
	AppRevenue []float64
	// Served marks apps with every tier placed.
	Served []bool
	// Profit is Σ app revenue − Σ active server cost.
	Profit float64
}

// Solve places every tier of every app on the cloud.
func Solve(cloud model.Cloud, apps []App, cfg Config) (*Solution, error) {
	if len(apps) == 0 {
		return nil, errors.New("multitier: no apps")
	}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	compiled, index, err := compile(cloud, apps)
	if err != nil {
		return nil, err
	}
	// Admission decisions are all-or-nothing at the app level: a tier's
	// compiled base (a/T) understates its marginal value, so per-tier
	// admission control would wrongly drop tiers of profitable apps.
	cfg.Solver.AdmissionControl = false
	solver, err := core.NewSolver(compiled, cfg.Solver)
	if err != nil {
		return nil, err
	}
	a, _, err := solver.SolveCtx(context.Background())
	if err != nil {
		return nil, err
	}
	return aggregate(cloud, apps, compiled, index, a)
}

// tierKey maps a compiled client back to its (app index, tier index).
type tierKey struct {
	app  int
	tier int
}

// compile derives the single-tier scenario: one pseudo-client and one
// utility class per (app, tier).
func compile(cloud model.Cloud, apps []App) (*model.Scenario, []tierKey, error) {
	scen := &model.Scenario{
		Cloud: model.Cloud{
			ServerClasses: append([]model.ServerClass(nil), cloud.ServerClasses...),
			Clusters:      make([]model.Cluster, len(cloud.Clusters)),
			Servers:       append([]model.Server(nil), cloud.Servers...),
		},
	}
	for k, cl := range cloud.Clusters {
		scen.Cloud.Clusters[k] = model.Cluster{
			ID:      cl.ID,
			Servers: append([]model.ServerID(nil), cl.Servers...),
		}
	}
	var index []tierKey
	for ai, app := range apps {
		nT := float64(len(app.Tiers))
		for ti, tier := range app.Tiers {
			ucID := model.UtilityClassID(len(scen.Cloud.UtilityClasses))
			scen.Cloud.UtilityClasses = append(scen.Cloud.UtilityClasses, model.UtilityClass{
				ID:    ucID,
				Base:  app.Base / nT,
				Slope: app.Slope,
			})
			clID := model.ClientID(len(scen.Clients))
			scen.Clients = append(scen.Clients, model.Client{
				ID:            clID,
				Class:         ucID,
				ArrivalRate:   app.ArrivalRate,
				PredictedRate: app.PredictedRate,
				ProcTime:      tier.ProcTime,
				CommTime:      tier.CommTime,
				DiskNeed:      tier.DiskNeed,
			})
			index = append(index, tierKey{app: ai, tier: ti})
		}
	}
	if err := scen.Validate(); err != nil {
		return nil, nil, fmt.Errorf("multitier: compiled scenario invalid: %w", err)
	}
	return scen, index, nil
}

// aggregate folds the compiled solution back to app level.
func aggregate(cloud model.Cloud, apps []App, compiled *model.Scenario,
	index []tierKey, a *alloc.Allocation) (*Solution, error) {
	sol := &Solution{
		Alloc:       a,
		Compiled:    compiled,
		AppResponse: make([]float64, len(apps)),
		AppRevenue:  make([]float64, len(apps)),
		Served:      make([]bool, len(apps)),
	}
	placedTiers := make([]int, len(apps))
	for ci, key := range index {
		id := model.ClientID(ci)
		if !a.Assigned(id) {
			continue
		}
		resp, err := a.ResponseTime(id)
		if err != nil {
			continue
		}
		placedTiers[key.app]++
		sol.AppResponse[key.app] += resp
		sol.Placements = append(sol.Placements, TierPlacement{
			App:      apps[key.app].ID,
			Tier:     key.tier,
			Cluster:  model.ClusterID(a.ClusterOf(id)),
			Response: resp,
			Portions: a.Portions(id),
		})
	}
	var revenue float64
	for ai, app := range apps {
		if placedTiers[ai] != len(app.Tiers) {
			sol.AppResponse[ai] = 0
			continue
		}
		sol.Served[ai] = true
		u := app.Base - app.Slope*sol.AppResponse[ai]
		if u < 0 {
			u = 0
		}
		sol.AppRevenue[ai] = app.ArrivalRate * u
		revenue += sol.AppRevenue[ai]
	}
	var cost float64
	for j := range cloud.Servers {
		cost += a.ServerCost(model.ServerID(j))
	}
	sol.Profit = revenue - cost
	return sol, nil
}
