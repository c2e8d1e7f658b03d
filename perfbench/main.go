// Command perfbench is the repository's benchmark. It drives the
// allocator only through its package functions on one of three workloads,
// checks the outputs, and prints one JSON result as its last line:
//
//	perfbench --workload batch-exact --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// no wrappers in the way. With --trace 1 the same workload runs again
// with the benchmark's own timing wrappers at each layer boundary, and
// the result holds the per-layer metrics; the spans are written under
// --out when the run ends. README.md lists every metric and the reason
// each workload exists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchWorkload is one benchmark workload: a full shape for measurement and a
// tiny one for the smoke test, with an end-to-end and a traced run.
type benchWorkload struct {
	name  string
	full  shape
	tiny  shape
	e2e   func(ctx context.Context, r *runner) error
	trace func(ctx context.Context, r *runner) error
}

// shape sizes a workload's inputs.
type shape struct {
	clients  int // clients in the generated scenario
	clusters int // clusters, where the workload does not derive them
	events   int // churn events per stream (online-churn)
	// wireClients sizes the wire probe of the traced run (online-churn):
	// the distributed-tcp shape, see probeWire.
	wireClients int
}

var workloads = []benchWorkload{
	{name: "batch-exact",
		full: shape{clients: 1000}, tiny: shape{clients: 60},
		e2e: batchE2E(exactConfig), trace: batchTrace(exactConfig)},
	{name: "batch-sharded",
		full: shape{clients: 10000}, tiny: shape{clients: 800},
		e2e: batchE2E(shardedConfig), trace: batchTrace(shardedConfig)},
	{name: "online-churn",
		full: shape{clients: 300, clusters: 5, events: 30000, wireClients: 500},
		tiny: shape{clients: 60, clusters: 3, events: 1500, wireClients: 40},
		e2e:  onlineE2E, trace: onlineTrace},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	instance int64
	seconds  float64
	trace    bool
	out      string
	tiny     bool // the workload's smoke-test shape (tests only)
}

func parse(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "batch-exact | batch-sharded | online-churn")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the solvers' randomized choices and of the probes' samples")
	fs.Int64Var(&o.instance, "instance", 1, "seed of the generated scenario and event stream")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the end-to-end run measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	fs.StringVar(&o.out, "out", "", "directory for the run record and spans (empty writes nothing)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := findWorkload(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	o, err := parse(args, stderr)
	if err != nil {
		return err
	}
	res, rec, tr, err := execute(context.Background(), o)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := writeRecord(o, rec, tr); err != nil {
			return err
		}
	}
	printTable(stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// execute runs one workload and returns its result, its run record and,
// for a traced run, its spans.
func execute(ctx context.Context, o options) (result, record, *tracer, error) {
	w, _ := findWorkload(o.workload)
	sh := w.full
	if o.tiny {
		sh = w.tiny
	}
	r := &runner{
		opts:    o,
		shape:   sh,
		metrics: map[string]metric{},
		samples: map[string]int{},
	}
	if o.trace {
		r.tr = newTracer()
	}
	fn := w.e2e
	if o.trace {
		fn = w.trace
	}
	if err := fn(ctx, r); err != nil {
		return result{}, record{}, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	rec := record{
		Workload:  o.workload,
		Instance:  o.instance,
		Seed:      o.seed,
		Seconds:   o.seconds,
		Trace:     o.trace,
		Tiny:      o.tiny,
		BenchMeta: experiment.NewBenchMeta(),
		GitSHA:    gitSHA(),
		Samples:   r.samples,
		Failures:  r.chk.msgs,
		Series:    r.seriesOf,
	}
	if r.tr != nil {
		rec.SelfTime = r.tr.selfTimes()
	}
	res := result{
		Correct:   r.chk.failed == 0,
		Attempted: r.chk.attempted,
		Failed:    r.chk.failed,
		Metrics:   r.metrics,
	}
	if res.Attempted < 1 {
		return result{}, record{}, nil, fmt.Errorf("%s: no operation attempted", o.workload)
	}
	return res, rec, r.tr, nil
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the run record written next to the spans: the environment,
// the sample count behind every median and percentile, and the failed
// checks.
type record struct {
	Workload string  `json:"workload"`
	Instance int64   `json:"instance"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Tiny     bool    `json:"tiny"`
	experiment.BenchMeta
	GitSHA   string               `json:"git_sha"`
	Samples  map[string]int       `json:"samples"`
	Failures []string             `json:"failures"`
	Series   map[string][]float64 `json:"series,omitempty"`
	SelfTime map[string]spanTotal `json:"self_time,omitempty"`
}

// gitSHA is the revision the binary was built from, as the go command
// stamped it; "unknown" when the sources were not in a git checkout.
func gitSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	sha, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		sha += "+dirty"
	}
	return sha
}

func writeRecord(o options, rec record, tr *tracer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if o.trace {
		mode = "trace"
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-%s", o.workload, o.seed, mode))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return tr.write(base + ".spans.json")
}

func printTable(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d gomaxprocs=%d\n",
		res.Correct, res.Attempted, res.Failed, runtime.GOMAXPROCS(0))
}

// runner carries one run's settings and what it has measured so far.
type runner struct {
	opts     options
	shape    shape
	tr       *tracer // nil in the end-to-end run
	chk      checker
	metrics  map[string]metric
	samples  map[string]int
	seriesOf map[string][]float64
}

// set records a metric; n is the number of samples behind it (0 when the
// value is a single measurement).
func (r *runner) set(name, unit string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		r.samples[name] = n
	}
}

// series keeps the samples behind a metric in the run record.
func (r *runner) series(name string, xs []float64) {
	if r.seriesOf == nil {
		r.seriesOf = map[string][]float64{}
	}
	r.seriesOf[name] = xs
}

// more reports whether a measuring loop that started at start and has
// taken n samples, the last of which took last, takes another: while it
// has fewer than min, or while one more as long as the last would end
// within the run's --seconds.
func (r *runner) more(start time.Time, n, min int, last time.Duration) bool {
	if n < min {
		return true
	}
	budget := time.Duration(r.opts.seconds * float64(time.Second))
	return time.Since(start)+last <= budget
}
