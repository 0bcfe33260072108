package main

import (
	"math"
	"strings"
	"testing"
)

// endToEndNames are the metrics BENCHMARK.json gates; every untraced run
// reports each of them.
var endToEndNames = []string{
	"setup_s", "op_p50_ms", "side_p50_ms",
	"ops_per_s", "cpu_us_per_op", "allocs_per_op", "heap_peak_mb",
}

func shortRun(t *testing.T, workload string, trace bool, fault string) *report {
	t.Helper()
	r, err := run(options{workload: workload, seed: 7, seconds: 2, trace: trace, short: true, fault: fault})
	if err != nil {
		t.Fatalf("%s (trace=%v, fault=%q): %v", workload, trace, fault, err)
	}
	return r
}

// TestWorkloadsEmitEveryMetric runs each workload in short mode, untraced
// and traced, and checks the verdict and that every named metric is
// reported with its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"steer", "collab", "durable"} {
		t.Run(w, func(t *testing.T) {
			r := shortRun(t, w, false, "")
			if !r.correct() || r.Attempted == 0 {
				t.Fatalf("verdict: correct=%v attempted=%d problems=%v", r.correct(), r.Attempted, r.Problems)
			}
			if len(r.Metrics) != len(endToEndNames) {
				t.Errorf("untraced run reports %d metrics, want %d", len(r.Metrics), len(endToEndNames))
			}
			for _, name := range endToEndNames {
				m, ok := r.Metrics[name]
				if !ok || m.Unit == "" || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end %s = %+v (present %v), want a positive finite value with a unit", name, m, ok)
				}
			}

			r = shortRun(t, w, true, "")
			if !r.correct() {
				t.Fatalf("traced verdict: %v", r.Problems)
			}
			if len(r.Metrics) != len(perLayerNames) {
				t.Errorf("traced run reports %d metrics, want %d", len(r.Metrics), len(perLayerNames))
			}
			for _, l := range perLayerNames {
				m, ok := r.Metrics[l.name]
				if !ok || m.Unit != l.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer %s = %+v (present %v)", l.name, m, ok)
				}
			}
			for _, name := range []string{"bench.trace_overhead", "bench.layer_sum_ratio", "orb.invoke_us", "session.push_ns"} {
				if !(r.Metrics[name].Value > 0) {
					t.Errorf("%s = %v, want > 0", name, r.Metrics[name].Value)
				}
			}
			if len(r.Spans) == 0 {
				t.Error("traced run recorded no benchmark spans")
			}
		})
	}
}

// TestChecksTripOnInjectedFaults makes each workload's correctness checks
// see a defect — a wrong parameter value, a dropped broadcast, a lost
// recovered write — and requires the run to fail.
func TestChecksTripOnInjectedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, tc := range []struct{ workload, fault, want string }{
		{"steer", faultWrongParam, "get_param"},
		{"collab", faultDropBroadcast, "never arrived"},
		{"durable", faultWrongParam, "last set_param"},
	} {
		t.Run(tc.workload+"/"+tc.fault, func(t *testing.T) {
			r := shortRun(t, tc.workload, false, tc.fault)
			if r.correct() || r.Failed == 0 {
				t.Fatalf("fault %s went unnoticed: correct=%v failed=%d", tc.fault, r.correct(), r.Failed)
			}
			if !strings.Contains(strings.Join(r.Problems, "\n"), tc.want) {
				t.Errorf("problems %q do not mention %q", r.Problems, tc.want)
			}
		})
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "bench", Name: "op", Start: 0, Dur: 100},
		{ID: 1, Parent: 0, Layer: "server", Name: "call", Start: 10, Dur: 30},
		{ID: 2, Parent: 0, Layer: "server", Name: "call", Start: 30, Dur: 40}, // overlaps the first
	}
	st := selfTimes(spans)
	if got := st["bench/op"].total; got != 40 {
		t.Errorf("root self time = %d, want 40 (100 minus the covered 10..70)", got)
	}
	if got := st["server/call"]; got.total != 70 || got.n != 2 {
		t.Errorf("child self time = %+v, want 70 over 2 spans", got)
	}
}
