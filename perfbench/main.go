// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the distributed FFT library, checks every output,
// and prints each metric by name and unit, the last line being one JSON
// object. Untraced runs (-trace 0) report the end-to-end metrics; traced
// runs (-trace 1) report per-layer metrics, taken from the virtual-time
// events the library's tracer records and from timing each layer's own
// entry points at the workload's exact shapes.
//
// Two clocks appear: host metrics (unit ms, s, 1/s, MB) are the simulator's
// wall clock on the machine running it; virtual metrics (unit virt_us) are the
// simulated machine's deterministic clock.
//
//	go run . -workload pencil128 -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the library sees, reported untraced.
var endToEnd = []metricDef{
	{"host_ms_p50", "ms"},
	{"host_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics. Layers a workload bypasses report
// zero. Virtual times are per op, maximum over ranks.
var perLayer = []metricDef{
	{"virt_us_per_op", "virt_us"},
	{"max_rel_err", "ratio"},
	{"fail_ratio", "ratio"},
	{"samples", "count"},
	{"baseline.serial_fft_ms", "ms"},
	{"fft.host_ms", "ms"},
	{"fft.flops", "flop"},
	{"fft.gflops_host", "GFLOP/s"},
	{"fft.virt_us", "virt_us"},
	{"fft.strided_virt_us", "virt_us"},
	{"pack.host_ms", "ms"},
	{"unpack.host_ms", "ms"},
	{"pack.bytes", "bytes"},
	{"pack.virt_us", "virt_us"},
	{"unpack.virt_us", "virt_us"},
	{"reorder.virt_us", "virt_us"},
	{"exchange.host_ms", "ms"},
	{"exchange.alloc_mb", "MB"},
	{"exchange.virt_us", "virt_us"},
	{"exchange.bytes", "bytes"},
	{"exchange.msgs", "count"},
	{"exchange.skew_us", "virt_us"},
	{"model.exchange_pred_us", "virt_us"},
	{"model.residual", "ratio"},
	{"convert.virt_us", "virt_us"},
	{"checksum.virt_us", "virt_us"},
	{"retain.virt_us", "virt_us"},
	{"batched_fft.virt_us", "virt_us"},
	{"pcie.bytes", "bytes"},
	{"core.plan_build_ms", "ms"},
	{"core.exchanges", "count"},
	{"core.exec_host_ms", "ms"},
	{"core.other_ms", "ms"},
	{"integrity.checksum_checks", "1/op"},
	{"integrity.checksum_mismatches", "1/op"},
	{"integrity.retransmits", "1/op"},
	{"integrity.invariant_checks", "1/op"},
	{"integrity.invariant_failures", "1/op"},
	{"integrity.phase_reexecs", "1/op"},
	{"sched.mean_batch", "count"},
	{"sched.batches", "count"},
	{"sched.rejected", "count"},
	{"sched.server_latency_ms_p50", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"serve.retries", "count"},
	{"serve.virt_us_per_req", "virt_us"},
	{"gc.pause_ms_per_op", "ms"},
	{"trace.overhead_pct", "%"},
	{"gen.lag_ms_p90", "ms"},
}

// runOpts are one run's settings.
type runOpts struct {
	seed   int64
	budget time.Duration // measuring time
	trace  bool
	// setup_s is the median of at least setupMin set-ups spanning at least
	// setupBudget.
	setupMin    int
	setupBudget time.Duration
}

// repeatSetup times once until both of o's set-up minimums are met and
// returns the times in seconds.
func repeatSetup(o runOpts, once func() (time.Duration, error)) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < o.setupMin || time.Since(start) < o.setupBudget {
		d, err := once()
		if err != nil {
			return out, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runOpts, *report) error{
	"pencil128":     func(o runOpts, r *report) error { return runPlan(pencil128(), o, r) },
	"scale768":      func(o runOpts, r *report) error { return runPlan(scale768(), o, r) },
	"serve-guarded": runServe,
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload and returns its result line; human-readable
// lines (every value with its unit, and the workload's notes) go to out.
func run(name string, o runOpts, out io.Writer) (result, error) {
	wl, ok := workloads[name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", name)
	}
	rep := newReport()
	err := wl(o, rep)
	if rep.attempted > 0 {
		rep.set("fail_ratio", float64(rep.failed)/float64(rep.attempted))
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Correct: err == nil && rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, n := range rep.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(rep.values))
	for n := range rep.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "# %-32s %14.6g %s\n", n, rep.values[n], units[n])
	}
	if err != nil {
		return res, err
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			return res, fmt.Errorf("workload %s did not report %s", name, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("workload %s attempted no op", name)
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "workload: pencil128, scale768 or serve-guarded")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", 10, "measuring time of the run")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()

	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	o := runOpts{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), trace: *traced == 1,
		setupMin: 5, setupBudget: 2 * time.Second}
	res, err := run(*workload, o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	if len(res.Metrics) > 0 {
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	}
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}
