// Command perfbench is the repository benchmark. It drives a DISCOVER
// federation only from outside — experiments.NewFederation/AttachApp,
// discover.StartDomain, the portal client and the server ops — and reads
// the program's existing counters and trace spans through their public
// accessors. It adds no instrumentation to the program.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload steer --seed 1 --seconds 10 --trace 0
//
// Workloads are steer, collab and durable (see NOTES.md). With --trace 0
// the run reports the end-to-end metrics; with --trace 1 it measures an
// untraced half and a traced half of the window and reports the per-layer
// metrics. Every run checks the program's outputs. Earlier lines of
// standard output list every metric by name with its unit, the
// environment and the verdict; the last line is one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runDeadline bounds a whole run: a wedged federation must fail the run
// instead of hanging it.
const runDeadline = 170 * time.Second

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run produces.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Env       map[string]string `json:"env"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`

	// Metrics is what the last output line carries: the end-to-end set
	// (untraced) or the per-layer set (traced).
	Metrics map[string]metric `json:"metrics"`
	// Detail holds the workload's own named figures (the per-path
	// latencies, sample counts, failed_ratio) printed for reading but not
	// gated.
	Detail map[string]metric `json:"detail"`
	Spans  []span            `json:"spans,omitempty"`
}

func (r *report) correct() bool { return len(r.Problems) == 0 }

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// short shrinks every fixed count for the self-test.
	short bool
	// fault injects a defect the correctness checks must catch (self-test).
	fault string
}

// resultsDir receives each run's full report, with spans when traced.
var resultsDir = filepath.Join(".bench_build", "results")

// Faults the self-test injects into what a workload believes the program
// answered, so that its correctness checks must trip.
const (
	// faultWrongParam corrupts the client's record of a value it set.
	faultWrongParam = "wrong-param"
	// faultDropBroadcast discards one broadcast at the SSE receiver.
	faultDropBroadcast = "drop-broadcast"
)

// workload is one traffic mix. setup deploys it and warms it up; window
// drives load for d and returns once every operation it started has
// completed or failed; finish adds the verdict and the workload's settings
// to the report; teardown releases everything setup made.
type workload interface {
	setup(o options) error
	window(d time.Duration, rec *recorder) error
	sys() *system
	// paths names the recorder paths behind op_* (the workload's primary
	// operation) and side_p50_ms.
	paths() (primary, side string)
	// probeInput returns the inputs the workload generated, for the
	// layer probes.
	probeInput() probeInput
	finish(r *report)
	teardown()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "steer":
		return &steer{}, nil
	case "collab":
		return &collabLoad{}, nil
	case "durable":
		return &durable{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want steer, collab or durable)", name)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "steer, collab or durable")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = trace == 1

	timer := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runDeadline)
		os.Exit(2)
	})
	r, err := run(o)
	timer.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeReport(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
	}
	printReport(r)
}

// run executes one benchmark run and returns its report. A failed
// correctness check is reported, not returned as an error; an error means
// the run could not measure at all.
func run(o options) (*report, error) {
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	r := &report{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Env: environment(), Metrics: map[string]metric{}, Detail: map[string]metric{},
	}
	r.Env["seed"] = fmt.Sprint(o.seed)

	setup, err := setupRepeated(w, o)
	if err != nil {
		return nil, err
	}
	defer w.teardown()

	total := time.Duration(o.seconds) * time.Second
	if !o.trace {
		m, err := measureWindow(w, total, nil)
		if err != nil {
			return nil, err
		}
		w.finish(r)
		endToEnd(r, w, setup, m)
		return r, nil
	}

	// Traced run: an untraced half gives the counters, process figures and
	// benchmark-side timings; a traced half gives the program's own hop
	// spans and the benchmark's spans; probes follow.
	half := total / 2
	plain, err := measureWindow(w, half, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := measureWindow(w, total-half, tr)
	if err != nil {
		return nil, err
	}
	w.finish(r)
	hops, err := fetchHops(w.sys())
	if err != nil {
		return nil, err
	}
	probes, err := runProbes(w.probeInput(), tr, o.short)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	perLayer(r, plain, traced, hops, probes, tr.spans)
	r.Spans = tr.spans
	return r, nil
}

// Set-up is repeated at least setupMin times and until setupSpend has gone
// into it (at most setupMax times), so a quick set-up is timed as often as
// a slow one needs to be for a steady median.
const (
	setupMin   = 5
	setupMax   = 25
	setupSpend = time.Second
)

// setupRepeated deploys the workload several times, tearing down all but
// the last, and returns the median set-up time in seconds.
func setupRepeated(w workload, o options) (float64, error) {
	var times []float64
	var spent time.Duration
	for {
		t0 := time.Now()
		if err := w.setup(o); err != nil {
			w.teardown()
			return 0, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		times = append(times, d.Seconds())
		spent += d
		done := len(times) >= setupMax || (len(times) >= setupMin && spent >= setupSpend)
		if o.short || done {
			return medianF(times), nil
		}
		w.teardown()
	}
}

// endToEnd fills the gated end-to-end metrics of an untraced run. Each
// is the median over the window's blocks of the block's own figure.
func endToEnd(r *report, w workload, setup float64, m *windowResult) {
	primary, side := w.paths()
	rec := m.rec
	perOp := func(f func(b *block) float64) float64 {
		return rec.blockMedian(func(b *block) (float64, bool) { return f(b) / float64(b.ops), true })
	}
	r.Metrics["setup_s"] = metric{setup, "s"}
	r.Metrics["op_p50_ms"] = metric{ms(rec.blockQuantile(primary, 0.50)), "ms"}
	r.Metrics["side_p50_ms"] = metric{ms(rec.blockQuantile(side, 0.50)), "ms"}
	r.Metrics["ops_per_s"] = metric{rec.blockMedian(func(b *block) (float64, bool) {
		busy := b.busy
		if busy == 0 {
			busy = b.wall
		}
		return float64(b.ops) / busy.Seconds(), true
	}), "1/s"}
	r.Metrics["cpu_us_per_op"] = metric{perOp(func(b *block) float64 { return float64(b.proc.cpu) / 1e3 }), "us"}
	r.Metrics["allocs_per_op"] = metric{perOp(func(b *block) float64 { return float64(b.proc.mallocs) }), "count"}
	r.Metrics["heap_peak_mb"] = metric{rec.blockMedian(func(b *block) (float64, bool) {
		return float64(b.heapPeak) / (1 << 20), true
	}), "MiB"}
	r.Detail["blocks"] = metric{float64(len(rec.blocks)), "count"}
	r.Detail["op_p95_ms"] = metric{ms(rec.blockQuantile(primary, 0.95)), "ms"}
	r.Detail["op_p99_ms"] = metric{ms(rec.blockQuantile(primary, 0.99)), "ms"}
	r.Detail["window_heap_peak_mb"] = metric{float64(m.heapPeak) / (1 << 20), "MiB"}
	r.Detail["window_cpu_us_per_op"] = metric{float64(m.proc.cpu.Microseconds()) / float64(m.ops), "us"}
	if r.Attempted > 0 {
		r.Detail["failed_ratio"] = metric{float64(r.Failed) / float64(r.Attempted), "ratio"}
	}
	for name, k := range rec.named {
		r.Detail[name+"_p50_ms"] = metric{ms(quantileD(k, 0.50)), "ms"}
		r.Detail[name+"_p99_ms"] = metric{ms(quantileD(k, 0.99)), "ms"}
		r.Detail[name+"_n"] = metric{float64(len(k)), "count"}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// printReport writes the human-readable lines and, last, the JSON result.
func printReport(r *report) {
	keys := func(m map[string]string) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	var env []string
	for _, k := range keys(r.Env) {
		env = append(env, k+"="+r.Env[k])
	}
	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Printf("# env %s\n", strings.Join(env, " "))
	for _, block := range []struct {
		title string
		m     map[string]metric
	}{{"metric", r.Metrics}, {"detail", r.Detail}} {
		var names []string
		for k := range block.m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("%s %-34s %14.6g %s\n", block.title, k, block.m[k].Value, block.m[k].Unit)
		}
	}
	for _, p := range r.Problems {
		fmt.Printf("# check failed: %s\n", p)
	}
	fmt.Printf("# correct=%v attempted=%d failed=%d\n", r.correct(), r.Attempted, r.Failed)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, r.Metrics}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf can fail here; report it rather than print a
		// result line the reader cannot parse.
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// writeReport keeps the full report, spans included, for later reading.
func writeReport(r *report) error {
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", r.Workload, r.Seed, r.Trace)
	return os.WriteFile(filepath.Join(resultsDir, name), b, 0o644)
}
