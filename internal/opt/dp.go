package opt

import (
	"errors"
	"math"
)

// NegInf marks an infeasible cell in a CombinePortions value table.
var NegInf = math.Inf(-1)

// ErrNoFeasibleCombination is returned when no choice of per-candidate
// portions sums to the required total.
var ErrNoFeasibleCombination = errors.New("opt: no feasible portion combination")

// CombinePortions is the dynamic program of the paper's Assign_Distribute:
// given values[s][g] — the profit contribution of routing g grid units
// (g·δ of the request stream) to candidate server s — choose g_s ≥ 0 with
// Σ g_s = total that maximizes Σ values[s][g_s].
//
// values[s] may be shorter than total+1; missing cells and NegInf cells
// are infeasible. values[s][0] must be 0 for "route nothing" to be free.
// Returns the best value and the chosen grid units per candidate.
func CombinePortions(values [][]float64, total int) (float64, []int, error) {
	return combinePortions(values, total, nil)
}

// PortionScratch holds the working arrays of a CombinePortions run so a
// hot caller (the reassignment scoring pool prices every client against
// every cluster) can reuse them across calls. The units slice returned
// by Combine aliases the scratch and is only valid until the next call.
type PortionScratch struct {
	dp, next []float64
	choice   []int16 // flat len(values)×(total+1) back-pointer matrix
	units    []int
}

// Combine is CombinePortions evaluated in this scratch's buffers.
func (ps *PortionScratch) Combine(values [][]float64, total int) (float64, []int, error) {
	return combinePortions(values, total, ps)
}

func combinePortions(values [][]float64, total int, ps *PortionScratch) (float64, []int, error) {
	if total < 0 {
		return 0, nil, errors.New("opt: negative total")
	}
	if len(values) == 0 {
		if total == 0 {
			return 0, nil, nil
		}
		return 0, nil, ErrNoFeasibleCombination
	}
	// dp[g] = best value routing g units among candidates seen so far.
	// choice[s*(total+1)+g] = units given to candidate s in the best
	// solution that routes g units among candidates 0..s.
	var dp, next []float64
	var choice []int16
	if ps != nil {
		dp = grow(ps.dp, total+1)
		next = grow(ps.next, total+1)
		choice = grow(ps.choice, len(values)*(total+1))
		ps.dp, ps.next, ps.choice = dp, next, choice
	} else {
		dp = make([]float64, total+1)
		next = make([]float64, total+1)
		choice = make([]int16, len(values)*(total+1))
	}
	dp[0] = 0
	for g := 1; g <= total; g++ {
		dp[g] = NegInf
	}

	for s, vals := range values {
		row := choice[s*(total+1) : (s+1)*(total+1)]
		for g := 0; g <= total; g++ {
			next[g] = NegInf
			row[g] = -1
		}
		maxG := len(vals) - 1
		if maxG > total {
			maxG = total
		}
		for g, d := range dp {
			if d == NegInf {
				continue
			}
			// An infeasible cell (NegInf or NaN) makes cand NegInf or NaN,
			// which never compares greater, so it needs no test of its own.
			lim := total - g
			if lim > maxG {
				lim = maxG
			}
			nx, ch := next[g:g+lim+1], row[g:g+lim+1]
			for u, v := range vals[:lim+1] {
				if cand := d + v; cand > nx[u] {
					nx[u] = cand
					ch[u] = int16(u)
				}
			}
		}
		dp, next = next, dp
	}
	if dp[total] == NegInf {
		return 0, nil, ErrNoFeasibleCombination
	}
	var units []int
	if ps != nil {
		units = grow(ps.units, len(values))
		ps.units = units
		// The dp/next swap above may have left the slices crossed; keep
		// the scratch headers pointing at both backing arrays either way.
		ps.dp, ps.next = dp, next
	} else {
		units = make([]int, len(values))
	}
	g := total
	for s := len(values) - 1; s >= 0; s-- {
		u := int(choice[s*(total+1)+g])
		if u < 0 {
			return 0, nil, ErrNoFeasibleCombination
		}
		units[s] = u
		g -= u
	}
	return dp[total], units, nil
}

// grow returns buf resliced to n, reallocating only when the capacity is
// insufficient.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}
