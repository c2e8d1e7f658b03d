package opt

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestCombinePortionsSingleCandidate(t *testing.T) {
	vals := [][]float64{{0, 1, 3, 4}}
	best, units, err := CombinePortions(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	if best != 4 || units[0] != 3 {
		t.Fatalf("best=%v units=%v, want 4 / [3]", best, units)
	}
}

func TestCombinePortionsSplitBeatsSingle(t *testing.T) {
	// Concave per-candidate values: splitting 2 units as 1+1 (2+2=4) beats
	// 2+0 (3).
	vals := [][]float64{
		{0, 2, 3},
		{0, 2, 3},
	}
	best, units, err := CombinePortions(vals, 2)
	if err != nil {
		t.Fatal(err)
	}
	if best != 4 || units[0] != 1 || units[1] != 1 {
		t.Fatalf("best=%v units=%v, want 4 / [1 1]", best, units)
	}
}

func TestCombinePortionsInfeasibleCells(t *testing.T) {
	vals := [][]float64{
		{0, NegInf, NegInf},
		{0, 5, NegInf},
	}
	// Total 2 can only be 1+1, but candidate 0 at 1 unit is infeasible and
	// candidate 1 at 2 units is infeasible → no solution.
	if _, _, err := CombinePortions(vals, 2); !errors.Is(err, ErrNoFeasibleCombination) {
		t.Fatalf("err = %v, want ErrNoFeasibleCombination", err)
	}
}

func TestCombinePortionsShortRows(t *testing.T) {
	vals := [][]float64{
		{0, 1}, // can take at most 1 unit
		{0, 1, 10},
	}
	best, units, err := CombinePortions(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	if best != 11 || units[0] != 1 || units[1] != 2 {
		t.Fatalf("best=%v units=%v, want 11 / [1 2]", best, units)
	}
}

func TestCombinePortionsZeroTotal(t *testing.T) {
	best, units, err := CombinePortions([][]float64{{0, 1}, {0, 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best != 0 || units[0] != 0 || units[1] != 0 {
		t.Fatalf("best=%v units=%v, want 0 / [0 0]", best, units)
	}
}

func TestCombinePortionsEmpty(t *testing.T) {
	if _, _, err := CombinePortions(nil, 1); !errors.Is(err, ErrNoFeasibleCombination) {
		t.Fatalf("err = %v, want ErrNoFeasibleCombination", err)
	}
	if _, units, err := CombinePortions(nil, 0); err != nil || units != nil {
		t.Fatalf("empty zero-total should succeed: units=%v err=%v", units, err)
	}
	if _, _, err := CombinePortions([][]float64{{0}}, -1); err == nil {
		t.Fatal("negative total should error")
	}
}

// TestCombinePortionsVsBruteForce cross-checks the DP against exhaustive
// enumeration on random small instances.
func TestCombinePortionsVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		nCand := 1 + rng.Intn(4)
		total := 1 + rng.Intn(6)
		vals := make([][]float64, nCand)
		for s := range vals {
			row := make([]float64, total+1)
			for g := 1; g <= total; g++ {
				if rng.Float64() < 0.15 {
					row[g] = NegInf
				} else {
					row[g] = math.Round(rng.Float64()*200) / 10
				}
			}
			vals[s] = row
		}
		gotBest, gotUnits, gotErr := CombinePortions(vals, total)

		// Brute force.
		best := math.Inf(-1)
		var rec func(s, rem int, acc float64)
		rec = func(s, rem int, acc float64) {
			if s == nCand {
				if rem == 0 && acc > best {
					best = acc
				}
				return
			}
			for u := 0; u <= rem; u++ {
				v := vals[s][u]
				if v == NegInf {
					continue
				}
				rec(s+1, rem-u, acc+v)
			}
		}
		rec(0, total, 0)

		if math.IsInf(best, -1) {
			if !errors.Is(gotErr, ErrNoFeasibleCombination) {
				t.Fatalf("trial %d: want infeasible, got best=%v err=%v", trial, gotBest, gotErr)
			}
			continue
		}
		if gotErr != nil {
			t.Fatalf("trial %d: unexpected error %v", trial, gotErr)
		}
		if math.Abs(gotBest-best) > 1e-9 {
			t.Fatalf("trial %d: DP best %v != brute force %v", trial, gotBest, best)
		}
		var sum int
		var check float64
		for s, u := range gotUnits {
			sum += u
			check += vals[s][u]
		}
		if sum != total || math.Abs(check-gotBest) > 1e-9 {
			t.Fatalf("trial %d: reconstruction inconsistent: units=%v sum=%d value=%v best=%v",
				trial, gotUnits, sum, check, gotBest)
		}
	}
}

// TestCombinePortionsDeadRows is the property Assign_Distribute's row
// reduction rests on: leaving out dead rows (NegInf for every unit > 0)
// and cutting a row after its last feasible unit keep the value
// bit-identical and the load on the same rows. Integer-valued rows make
// many assignments tie exactly, so the cases also check that the
// reduction does not move a tie to another row.
func TestCombinePortionsDeadRows(t *testing.T) {
	dead := []float64{0, NegInf, NegInf, NegInf}
	a := []float64{0, 1.1, 1.9, 2.4}
	b := []float64{0, 0.7, 1.5, NegInf}
	lin := []float64{0, 1, 2, 3} // any split of the units ties
	cases := []struct {
		name  string
		full  [][]float64
		keep  []int // rows of full that stay, in order
		total int
	}{
		{"dead rows", [][]float64{dead, a, dead, b, dead}, []int{1, 3}, 3},
		{"only dead rows", [][]float64{dead, dead}, nil, 0},
		{"dead rows between ties", [][]float64{lin, dead, lin, dead, dead, lin}, []int{0, 2, 5}, 3},
		{"dead first and last", [][]float64{dead, b, a, lin, dead}, []int{1, 2, 3}, 3},
	}
	for _, tc := range cases {
		reduced := make([][]float64, len(tc.keep))
		for p, r := range tc.keep {
			row := tc.full[r]
			last := len(row) - 1
			for last > 0 && row[last] == NegInf {
				last--
			}
			reduced[p] = row[:last+1]
		}
		wantV, wantU, wantErr := CombinePortions(tc.full, tc.total)
		gotV, gotU, gotErr := CombinePortions(reduced, tc.total)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: err %v, full table %v", tc.name, gotErr, wantErr)
		}
		if math.Float64bits(gotV) != math.Float64bits(wantV) {
			t.Fatalf("%s: value %v, full table %v", tc.name, gotV, wantV)
		}
		p := 0
		for r := range tc.full {
			var u int
			if p < len(tc.keep) && tc.keep[p] == r {
				u = gotU[p]
				p++
			}
			if wantErr == nil && wantU[r] != u {
				t.Fatalf("%s: row %d gets %d units, full table %d (full %v, reduced %v)",
					tc.name, r, u, wantU[r], wantU, gotU)
			}
		}
	}
}
