package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/queueing"
)

// ErrCannotPlace is returned when a client cannot feasibly be served by
// the requested cluster (no disk, no stable share combination).
var ErrCannotPlace = errors.New("core: client cannot be placed in cluster")

// placementView is the read surface Assign_Distribute prices a candidate
// placement against. Both a live *alloc.Allocation and a read-only
// *alloc.View (the allocation with one client subtracted, used by the
// reassignment scoring pool) satisfy it.
type placementView interface {
	ProcShareUsed(model.ServerID) float64
	CommShareUsed(model.ServerID) float64
	DiskUsed(model.ServerID) float64
	Active(model.ServerID) bool
}

// candidateKey is everything a server's Assign_Distribute row depends on
// besides the client: servers with equal keys tabulate identical rows, so
// inactive servers of one class are priced "only once" (Section V.A).
type candidateKey struct {
	class  model.ServerClassID
	availP float64
	availB float64
	diskOK bool
	active bool
}

// distRow is one tabulated server row: the profit contribution and the
// shares per α grid unit. last is the highest grid unit with a value;
// 0 marks a dead row, a server that cannot take any α > 0.
type distRow struct {
	key    candidateKey
	values []float64
	shareP []float64
	shareB []float64
	last   int
}

// dpEntry is one row of the DP: a server and the distRow it prices with.
type dpEntry struct {
	server model.ServerID
	row    int
}

// distScratch holds one Assign_Distribute evaluation's working memory so
// a hot caller can reuse it across calls. The portions returned from a
// call alias the scratch and are only valid until the next call with
// the same scratch.
type distScratch struct {
	rows     []distRow // distinct rows tabulated in this call
	slot     []int     // per (class, active): index of its last tabulated row, -1 for none
	arena    []float64 // backing store for the rows' values/shareP/shareB
	entries  []dpEntry
	dpRows   [][]float64 // entries' values, trimmed after the last feasible unit
	dp       opt.PortionScratch
	portions []alloc.Portion
}

// reset empties the scratch for a call over a cluster with numClasses
// server classes. Buffers keep their capacity across calls and grow on
// demand, so a fresh scratch allocates only what one call needs.
func (scr *distScratch) reset(numClasses int) {
	if cap(scr.slot) < 2*numClasses {
		scr.slot = make([]int, 2*numClasses)
	}
	scr.rows = scr.rows[:0]
	scr.entries = scr.entries[:0]
	scr.dpRows = scr.dpRows[:0]
	scr.arena = scr.arena[:0]
	scr.slot = scr.slot[:2*numClasses]
	for c := range scr.slot {
		scr.slot[c] = -1
	}
}

// newRow appends an untabulated row for key, recycling the row slot and
// carving its slices from the arena, and returns its index. When the
// arena grows, rows carved earlier keep the old backing array, which
// nothing writes through the arena again.
func (scr *distScratch) newRow(key candidateKey, g int) int {
	n := len(scr.arena)
	scr.arena = slices.Grow(scr.arena, 3*(g+1))[:n+3*(g+1)]
	r := len(scr.rows)
	scr.rows = append(scr.rows, distRow{key: key})
	row := &scr.rows[r]
	row.values = scr.arena[n : n+g+1 : n+g+1]
	row.shareP = scr.arena[n+g+1 : n+2*(g+1) : n+2*(g+1)]
	row.shareB = scr.arena[n+2*(g+1) : n+3*(g+1) : n+3*(g+1)]
	return r
}

// AssignDistribute evaluates the best placement of (unassigned) client i
// on cluster k given the current allocation state, without mutating it.
// It returns the approximate profit of the placement and the portions
// realizing it (paper Section V.A: closed-form shares per server and α
// grid, combined by dynamic programming so that Σα = 1). It is safe for
// concurrent use; the returned portions belong to the caller.
func (s *Solver) AssignDistribute(a *alloc.Allocation, i model.ClientID, k model.ClusterID) (float64, []alloc.Portion, error) {
	scr := distPool.Get().(*distScratch)
	defer distPool.Put(scr)
	best, portions, err := s.assignDistribute(a, i, k, nil, scr)
	return best, slices.Clone(portions), err
}

// distPool recycles scratches for the exported AssignDistribute, whose
// callers (cluster agents answering Evaluate, the baselines) own none.
var distPool = sync.Pool{New: func() any { return new(distScratch) }}

// assignDistribute is AssignDistribute generalized over the read surface
// (live allocation or exclusion view), with an optional server filter
// (used by TurnOFF to exclude the server being drained), evaluated in
// scr's buffers.
//
// The DP runs only over live rows, with a bit-identical result
// (DESIGN.md §3.1): a dead row only adds +0 through "route nothing", so
// it is left out.
func (s *Solver) assignDistribute(v placementView, i model.ClientID, k model.ClusterID,
	allowed func(model.ServerID) bool, scr *distScratch) (float64, []alloc.Portion, error) {
	scen := s.scen
	cloud := &scen.Cloud
	if int(k) < 0 || int(k) >= cloud.NumClusters() {
		return 0, nil, fmt.Errorf("core: unknown cluster %d", k)
	}
	cl := &scen.Clients[i]
	u := scen.Utility(i)
	w := cl.ArrivalRate * u.Slope
	g := s.cfg.AlphaGranularity
	scr.reset(len(cloud.ServerClasses))
	for _, j := range cloud.ClusterServers(k) {
		if allowed != nil && !allowed(j) {
			continue
		}
		classIdx := cloud.Servers[j].Class
		class := &cloud.ServerClasses[classIdx]
		key := candidateKey{
			class:  class.ID,
			availP: 1 - v.ProcShareUsed(j),
			availB: 1 - v.CommShareUsed(j),
			diskOK: v.DiskUsed(j)+cl.DiskNeed <= class.StoreCap,
			active: v.Active(j),
		}
		slot := 2 * int(classIdx)
		if key.active {
			slot++
		}
		r := scr.slot[slot]
		if r < 0 || scr.rows[r].key != key {
			r = scr.newRow(key, g)
			s.tabulateServer(&scr.rows[r], cl, u, w, class, g)
			scr.slot[slot] = r
		}
		row := &scr.rows[r]
		if row.last == 0 {
			continue
		}
		scr.entries = append(scr.entries, dpEntry{server: j, row: r})
		scr.dpRows = append(scr.dpRows, row.values[:row.last+1])
	}
	if len(scr.entries) == 0 {
		return 0, nil, ErrCannotPlace
	}

	best, units, err := scr.dp.Combine(scr.dpRows, g)
	if err != nil {
		if errors.Is(err, opt.ErrNoFeasibleCombination) {
			return 0, nil, ErrCannotPlace
		}
		return 0, nil, fmt.Errorf("core: assign-distribute DP: %w", err)
	}
	portions := scr.portions[:0]
	for c, ug := range units {
		if ug == 0 {
			continue
		}
		e := scr.entries[c]
		row := &scr.rows[e.row]
		portions = append(portions, alloc.Portion{
			Server:    e.server,
			Alpha:     float64(ug) / float64(g),
			ProcShare: row.shareP[ug],
			CommShare: row.shareB[ug],
		})
	}
	scr.portions = portions
	return best, portions, nil
}

// tabulateServer fills the per-α-grid contribution of one server into
// row's (pre-sized, possibly recycled) slices: the linearized revenue
// α·λ·a minus the weighted tandem delay, the marginal energy cost
// P1·α·λ̃·tp/Cp, and the activation cost P0 for an inactive server.
func (s *Solver) tabulateServer(row *distRow, cl *model.Client, u model.UtilityClass, w float64,
	class *model.ServerClass, g int) {
	key := row.key
	row.values[0] = 0
	row.last = 0
	for ug := 1; ug <= g; ug++ {
		row.values[ug] = opt.NegInf
		if !key.diskOK {
			continue
		}
		alpha := float64(ug) / float64(g)
		rate := alpha * cl.PredictedRate
		phiP, okP := greedyShare(w*alpha, cl.ProcTime, rate, class.ProcCap, s.prices.proc, key.availP)
		if !okP {
			continue
		}
		phiB, okB := greedyShare(w*alpha, cl.CommTime, rate, class.CommCap, s.prices.comm, key.availB)
		if !okB {
			continue
		}
		dP, errP := queueing.PortionDelay(phiP, class.ProcCap, cl.ProcTime, rate)
		dB, errB := queueing.PortionDelay(phiB, class.CommCap, cl.CommTime, rate)
		if errP != nil || errB != nil {
			continue
		}
		val := alpha*cl.ArrivalRate*u.Base -
			w*alpha*(dP+dB) -
			class.UtilizationCost*queueing.LoadFraction(class.ProcCap, cl.ProcTime, rate)
		if !key.active {
			val -= class.FixedCost
		}
		row.values[ug] = val
		row.shareP[ug] = phiP
		row.shareB[ug] = phiB
		row.last = ug
	}
}
