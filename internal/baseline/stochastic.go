package baseline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/opt"
)

// RejectClient in a client→cluster vector leaves the client unserved
// (admission control).
const RejectClient = -1

// evalAssignment builds an allocation from a client→cluster vector using
// the proposed cluster-level resource allocation, and returns it with its
// profit. Clients whose designated cluster cannot host them are skipped
// (they simply earn nothing).
func evalAssignment(solver *core.Solver, clusters []int) (*alloc.Allocation, float64, error) {
	scen := solver.Scenario()
	a := alloc.New(scen)
	for i, k := range clusters {
		id := model.ClientID(i)
		if k == RejectClient {
			continue
		}
		if k < 0 || k >= scen.Cloud.NumClusters() {
			return nil, 0, fmt.Errorf("baseline: client %d assigned to cluster %d", i, k)
		}
		_, portions, err := solver.AssignDistribute(a, id, model.ClusterID(k))
		if err != nil {
			if errors.Is(err, core.ErrCannotPlace) {
				continue
			}
			return nil, 0, err
		}
		if err := a.Assign(id, model.ClusterID(k), portions); err != nil {
			continue
		}
	}
	return a, a.Profit(), nil
}

// assignmentState adapts a client→cluster vector to opt.AnnealState.
type assignmentState struct {
	solver   *core.Solver
	clusters []int
	energy   float64 // −profit, memoized at construction
}

var _ opt.AnnealState = (*assignmentState)(nil)

func newAssignmentState(solver *core.Solver, clusters []int) (*assignmentState, error) {
	_, profit, err := evalAssignment(solver, clusters)
	if err != nil {
		return nil, err
	}
	return &assignmentState{solver: solver, clusters: clusters, energy: -profit}, nil
}

// Energy implements opt.AnnealState (−profit: annealing minimizes).
func (st *assignmentState) Energy() float64 { return st.energy }

// Neighbor implements opt.AnnealState: move one random client to a random
// different cluster.
func (st *assignmentState) Neighbor(rng *rand.Rand) opt.AnnealState {
	numK := st.solver.Scenario().Cloud.NumClusters()
	next := append([]int(nil), st.clusters...)
	i := rng.Intn(len(next))
	if numK > 1 {
		k := rng.Intn(numK - 1)
		if k >= next[i] {
			k++
		}
		next[i] = k
	}
	ns, err := newAssignmentState(st.solver, next)
	if err != nil {
		// Proposal failed to evaluate; stay put (infinite energy would
		// also work but this keeps the walk alive).
		return st
	}
	return ns
}

// SAConfig tunes the simulated-annealing comparator (the stochastic
// alternative the paper names in Section V).
type SAConfig struct {
	Anneal opt.AnnealConfig
	// Seed drives the initial random assignment.
	Seed int64
	// Solver configures the cluster-level resource allocation.
	Solver core.Config
}

// DefaultSAConfig returns a medium-effort schedule.
func DefaultSAConfig() SAConfig {
	a := opt.DefaultAnnealConfig()
	a.Steps = 300
	a.InitialTemp = 5
	a.Cooling = 0.99
	return SAConfig{Anneal: a, Seed: 1, Solver: core.DefaultConfig()}
}

// SolveAnnealing optimizes the client→cluster assignment by simulated
// annealing over single-client moves, with the proposed cluster-level
// allocation as the evaluator.
func SolveAnnealing(scen *model.Scenario, cfg SAConfig) (*alloc.Allocation, error) {
	solver, err := core.NewSolver(scen, cfg.Solver)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := make([]int, scen.NumClients())
	for i := range start {
		start[i] = rng.Intn(scen.Cloud.NumClusters())
	}
	st, err := newAssignmentState(solver, start)
	if err != nil {
		return nil, err
	}
	best, err := opt.Anneal(st, cfg.Anneal)
	if err != nil {
		return nil, err
	}
	final, ok := best.(*assignmentState)
	if !ok {
		return nil, errors.New("baseline: annealer returned foreign state")
	}
	a, _, err := evalAssignment(solver, final.clusters)
	return a, err
}

// GAConfig tunes the genetic-search comparator.
type GAConfig struct {
	Population  int
	Generations int
	// MutationRate is the per-gene probability of a random cluster.
	MutationRate float64
	// Elite keeps the top individuals unchanged each generation.
	Elite int
	Seed  int64
	// Solver configures the cluster-level resource allocation.
	Solver core.Config
}

// DefaultGAConfig returns a small population suitable for the evaluation.
func DefaultGAConfig() GAConfig {
	return GAConfig{
		Population:   20,
		Generations:  15,
		MutationRate: 0.05,
		Elite:        2,
		Seed:         1,
		Solver:       core.DefaultConfig(),
	}
}

// SolveGenetic optimizes the client→cluster assignment with a simple
// generational GA: tournament selection, uniform crossover, per-gene
// mutation, elitism.
func SolveGenetic(scen *model.Scenario, cfg GAConfig) (*alloc.Allocation, error) {
	if cfg.Population < 2 || cfg.Generations <= 0 {
		return nil, fmt.Errorf("baseline: GA population=%d generations=%d", cfg.Population, cfg.Generations)
	}
	if cfg.Elite < 0 || cfg.Elite >= cfg.Population {
		return nil, fmt.Errorf("baseline: GA elite=%d", cfg.Elite)
	}
	if cfg.MutationRate < 0 || cfg.MutationRate > 1 {
		return nil, fmt.Errorf("baseline: GA mutation rate=%v", cfg.MutationRate)
	}
	solver, err := core.NewSolver(scen, cfg.Solver)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	numK := scen.Cloud.NumClusters()
	n := scen.NumClients()

	type individual struct {
		genes   []int
		fitness float64
	}
	evaluate := func(genes []int) (float64, error) {
		_, p, err := evalAssignment(solver, genes)
		return p, err
	}
	pop := make([]individual, cfg.Population)
	for p := range pop {
		genes := make([]int, n)
		for i := range genes {
			genes[i] = rng.Intn(numK)
		}
		fit, err := evaluate(genes)
		if err != nil {
			return nil, err
		}
		pop[p] = individual{genes: genes, fitness: fit}
	}
	sortPop := func() {
		// Insertion sort by descending fitness; populations are tiny.
		for i := 1; i < len(pop); i++ {
			for j := i; j > 0 && pop[j].fitness > pop[j-1].fitness; j-- {
				pop[j], pop[j-1] = pop[j-1], pop[j]
			}
		}
	}
	tournament := func() individual {
		a, b := pop[rng.Intn(len(pop))], pop[rng.Intn(len(pop))]
		if a.fitness >= b.fitness {
			return a
		}
		return b
	}
	sortPop()
	for g := 0; g < cfg.Generations; g++ {
		next := make([]individual, 0, cfg.Population)
		next = append(next, pop[:cfg.Elite]...)
		for len(next) < cfg.Population {
			p1, p2 := tournament(), tournament()
			child := make([]int, n)
			for i := range child {
				if rng.Float64() < 0.5 {
					child[i] = p1.genes[i]
				} else {
					child[i] = p2.genes[i]
				}
				if rng.Float64() < cfg.MutationRate {
					child[i] = rng.Intn(numK)
				}
			}
			fit, err := evaluate(child)
			if err != nil {
				return nil, err
			}
			next = append(next, individual{genes: child, fitness: fit})
		}
		pop = next
		sortPop()
	}
	a, _, err := evalAssignment(solver, pop[0].genes)
	return a, err
}

// MaxExhaustiveClients bounds the brute-force search; beyond this the
// K^N enumeration is pointless.
const MaxExhaustiveClients = 10

// SolveExhaustive enumerates every client→cluster assignment — including
// rejecting a client outright (admission control) — with the proposed
// cluster-level allocation, and returns the best. Only feasible for tiny
// instances: the paper's "exhaustive search … in the case of very small
// input size".
func SolveExhaustive(scen *model.Scenario, cfg core.Config) (*alloc.Allocation, error) {
	if scen.NumClients() > MaxExhaustiveClients {
		return nil, fmt.Errorf("baseline: %d clients exceed exhaustive limit %d",
			scen.NumClients(), MaxExhaustiveClients)
	}
	solver, err := core.NewSolver(scen, cfg)
	if err != nil {
		return nil, err
	}
	// Each enumerated assignment is polished with the assignment-
	// preserving local-search phases so the comparison point reflects the
	// best resource allocation for that assignment, not just the greedy
	// one.
	improveCfg := cfg
	improveCfg.DisableReassign = true
	improver, err := core.NewSolver(scen, improveCfg)
	if err != nil {
		return nil, err
	}
	numK := scen.Cloud.NumClusters()
	n := scen.NumClients()
	assign := make([]int, n)
	var (
		best       *alloc.Allocation
		bestProfit = math.Inf(-1)
	)
	var rec func(i int) error
	rec = func(i int) error {
		if i == n {
			a, _, err := evalAssignment(solver, assign)
			if err != nil {
				return err
			}
			improver.ImproveLocalCtx(context.Background(), a, nil)
			if p := a.Profit(); p > bestProfit {
				best, bestProfit = a, p
			}
			return nil
		}
		for k := RejectClient; k < numK; k++ {
			assign[i] = k
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return best, nil
}
