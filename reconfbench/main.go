// Command reconfbench is the repository benchmark: it drives Tenplex
// reconfigurations through the public entry points of the planner, the
// State Transformer, loopback Tensor Store daemons and the coordinator
// service, checks every output, and prints one JSON result line.
//
//	reconfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run. With --trace 1 the run is split: an untraced half and a
// traced half whose spans give the per-layer metrics; the difference
// between the halves is the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 5

// minOps is the fewest operations an untraced run measures: p90 is
// then the highest percentile with at least ten samples beyond it.
const minOps = 100

// measureLimit bounds the measured loops of one invocation, keeping it
// inside its 180-second allowance.
const measureLimit = 120 * time.Second

// runConfig is what one (untraced or traced) measurement gets.
type runConfig struct {
	seed   int64
	budget time.Duration
	// minOps extends the run until that many operations were measured.
	minOps int
	// deadline stops the loop regardless, so a run whose operations
	// keep failing still ends in time to report them.
	deadline time.Time
	rec      *recorder // nil: untraced
}

// more reports whether a loop that started at start and has measured
// n operations goes on.
func (c runConfig) more(start time.Time, n int) bool {
	return (time.Since(start) < c.budget || n < c.minOps) && time.Now().Before(c.deadline)
}

// metric is one named, unit-carrying figure.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run measured.
type result struct {
	attempted, failed int
	// opMs holds one latency per attempted operation; failures are
	// recorded as missMs.
	opMs       []float64
	setupS     []float64
	peakHeapMB float64
	// report holds the workload's own end-to-end figures, printed by
	// name with their units.
	report []metric
	// layers holds per-layer figures (traced runs).
	layers   map[string]float64
	problems []string
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(runConfig) (*result, error)
}

// measure runs the workload once; a run that reaches its deadline
// before measuring any operation has failed.
func (w *workload) measure(cfg runConfig) (*result, error) {
	res, err := w.run(cfg)
	if err == nil && len(res.opMs) == 0 {
		res.attempted++
		res.fail("no operation finished before the deadline")
	}
	return res, err
}

var workloads = []workload{
	{"tp4-dp4-migrate", func(c runConfig) (*result, error) { return runDatapath(tp4dp4Migrate(), c) }},
	{"failstop-recover", func(c runConfig) (*result, error) { return runDatapath(failstopRecover(), c) }},
	{"dcscale-decide", runDCScale},
	{"coordd-scale", runCoordd},
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 77, "workload seed: drives the golden tensors, the dcscale failure placement and the coordd job names")
	seconds := flag.Int("seconds", 20, "measurement time in seconds (runs also measure at least minOps operations)")
	trace := flag.Int("trace", 0, "1: per-layer traced run, 0: end-to-end untraced run")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "reconfbench: unknown workload %q or bad flags\n", *name)
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	deadline := time.Now().Add(measureLimit)
	var out map[string]metric
	var res *result
	var err error
	if *trace == 0 {
		res, err = w.measure(runConfig{seed: *seed, budget: budget, minOps: minOps, deadline: deadline})
		if err == nil {
			out = endToEnd(res)
		}
	} else {
		res, out, err = traced(w, *seed, budget, deadline)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "reconfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printReport(w.name, *seed, res, out)
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "reconfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// endToEnd reduces an untraced run to the contract metrics.
func endToEnd(r *result) map[string]metric {
	return map[string]metric{
		"op_p50_ms":    {Value: percentile(r.opMs, 0.5), Unit: "ms"},
		"op_p90_ms":    {Value: percentile(r.opMs, 0.9), Unit: "ms"},
		"peak_heap_mb": {Value: r.peakHeapMB, Unit: "MB"},
		"setup_s":      {Value: median(r.setupS), Unit: "s"},
	}
}

// traced runs an untraced half then a traced half, and reports the
// traced half's per-layer metrics plus the tracing overhead.
func traced(w *workload, seed int64, budget time.Duration, deadline time.Time) (*result, map[string]metric, error) {
	plain, err := w.measure(runConfig{seed: seed, budget: budget / 2, minOps: minOps / 10, deadline: deadline})
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder()
	res, err := w.measure(runConfig{seed: seed, budget: budget / 2, minOps: minOps / 10, deadline: deadline, rec: rec})
	if err != nil {
		return nil, nil, err
	}
	if err := rec.write(filepath.Join(".bench_build", "spans", w.name+".jsonl")); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	res.layers["trace.overhead_ms"] = median(res.opMs) - median(plain.opMs)
	res.layers["trace.spans"] += float64(len(rec.spans))
	res.attempted += plain.attempted
	res.failed += plain.failed
	res.problems = append(plain.problems, res.problems...)
	out := map[string]metric{}
	for _, l := range perLayer {
		out[l.Name] = metric{Value: res.layers[l.Name], Unit: l.Unit}
	}
	return res, out, nil
}

// printReport writes the human-readable lines that precede the JSON
// result: every figure by name with its unit.
func printReport(name string, seed int64, r *result, out map[string]metric) {
	fmt.Printf("workload %s seed %d: %d operations, %d failed\n", name, seed, r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Printf("  failure: %s\n", p)
	}
	fmt.Printf("  %-28s %14.6g %s\n", "error_rate", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	for _, m := range r.report {
		fmt.Printf("  %-28s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, out[n].Value, out[n].Unit)
	}
}
