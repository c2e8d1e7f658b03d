package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at its tiny shape, end to end and
// traced, with all output checks on, and checks that each run prints
// exactly the metrics BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if !equal(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			name := w.name + map[bool]string{false: "/e2e", true: "/trace"}[trace]
			t.Run(name, func(t *testing.T) {
				o := options{workload: w.name, instance: 1, seed: 7, seconds: 0.1, trace: trace, tiny: true}
				res, rec, _, err := execute(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, rec.Failures)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case !trace && got.Value == 0:
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
				}
			})
		}
	}
}

// TestInputsFromSeeds checks that the instance seed fixes the scenario
// and stream, and that the run seed moves only the sampling points.
func TestInputsFromSeeds(t *testing.T) {
	w, _ := findWorkload("online-churn")
	sh := w.full
	in := func(instance, seed int64) *churnInput {
		t.Helper()
		c, err := churnSetup(sh, instance, seed)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := in(3, 1), in(3, 1)
	if !equal(a.events, b.events) || a.offset != b.offset {
		t.Fatal("the same seeds gave two different inputs")
	}
	if c := in(4, 1); equal(a.events, c.events) {
		t.Fatal("instances 3 and 4 gave the same event stream")
	}
	offsets := map[int]bool{}
	for seed := int64(1); seed <= 5; seed++ {
		c := in(3, seed)
		if !equal(a.events, c.events) {
			t.Fatalf("seed %d changed the event stream of instance 3", seed)
		}
		offsets[c.offset] = true
	}
	if len(offsets) < 2 {
		t.Fatal("five seeds gave one sampling offset")
	}
}

func equal[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
