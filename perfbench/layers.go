package main

import "discover/internal/telemetry"

// perLayerNames lists every per-layer metric with its unit. A traced run
// reports all of them on every workload; a layer the workload does not
// cross reads 0.
var perLayerNames = []struct{ name, unit string }{
	{"server.edge_self_ms", "ms"},
	{"server.shed_per_op", "count"},
	{"server.stream_events_per_op", "count"},
	{"server.stream_lag_p50_ms", "ms"},
	{"session.fifo_wait_p50_ms", "ms"},
	{"session.enqueue_lag_p50_ms", "ms"},
	{"session.enqueue_lag_p99_ms", "ms"},
	{"session.overflow_per_op", "count"},
	{"session.push_ns", "ns"},
	{"session.push_full_ns", "ns"},
	{"core.relay_msgs_per_invocation", "count"},
	{"core.relay_dropped", "count"},
	{"core.relay_failures", "count"},
	{"core.relay_reordered_per_op", "count"},
	{"core.relay_flush_p50_ms", "ms"},
	{"core.relay_queue_wait_p50_ms", "ms"},
	{"core.relay_queue_wait_p99_ms", "ms"},
	{"core.queue_self_ms", "ms"},
	{"orb.invocations_per_op", "count"},
	{"orb.oneways_per_op", "count"},
	{"orb.writes_per_op", "count"},
	{"orb.bytes_per_invocation", "B"},
	{"orb.rpc_self_ms", "ms"},
	{"orb.invoke_us", "us"},
	{"orb.invoke_allocs", "count"},
	{"orb.marshal_us", "us"},
	{"orb.unmarshal_us", "us"},
	{"orb.unmarshal_allocs", "count"},
	{"wire.intern_hit_ratio", "ratio"},
	{"wire.wan_bytes_per_op", "B"},
	{"wire.wan_msgs_per_op", "count"},
	{"wire.codec_encode_ns", "ns"},
	{"wire.codec_decode_ns", "ns"},
	{"appproto.phase_p50_ms", "ms"},
	{"appproto.commands_per_phase", "count"},
	{"appproto.servant_self_ms", "ms"},
	{"collab.ops_applied_per_op", "count"},
	{"collab.dup_ratio", "ratio"},
	{"collab.ops_evicted_per_op", "count"},
	{"collab.syncs", "count"},
	{"collab.broadcast_us", "us"},
	{"lockmgr.acquire_p50_ms", "ms"},
	{"lockmgr.try_acquire_ns", "ns"},
	{"storage.wal_appends_per_op", "count"},
	{"storage.wal_bytes_per_op", "B"},
	{"storage.snapshots", "count"},
	{"storage.recovery_p50_ms", "ms"},
	{"storage.record_us", "us"},
	{"go.gc_cycles_per_op", "count"},
	{"go.gc_pause_p99_ms", "ms"},
	{"go.alloc_bytes_per_op", "B"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.layer_sum_ratio", "ratio"},
}

// ratio is a/b, 0 when b is 0 (a layer the workload never crossed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer fills the per-layer metrics of a traced run. Counters (C) and
// benchmark timings (B) come from the untraced half, hop spans (T) from
// the traced half, probes (P) from after both.
func perLayer(r *report, plain, traced *windowResult, hops hopSet, p probeResult, spans []span) {
	ops := float64(plain.ops)
	b, a := plain.before, plain.after
	reg := func(name string) float64 { return float64(a.reg[name] - b.reg[name]) }
	hist := func(name string, q float64) float64 { return ms(histQuantile(b, a, name, q)) }
	hop := func(name string) float64 { return ms(quantileD(hops[name], 0.5)) }
	rec := plain.rec
	ob, oa := b.obj, a.obj
	invocations := float64(oa.orb.Invocations - ob.orb.Invocations)
	oneways := float64(oa.orb.Oneways - ob.orb.Oneways)
	relayInv := float64(oa.relay.Invocations - ob.relay.Invocations)
	interned := float64(oa.orb.InternHits - ob.orb.InternHits)
	defs := float64(oa.orb.InternDefs - ob.orb.InternDefs)
	applied := reg("discover_collab_ops_applied_total")
	walAppends := reg("discover_storage_wal_appends_total")
	pushes := float64(oa.pushes - ob.pushes)
	phases := rec.counts["phases"]

	m := map[string]float64{
		"server.edge_self_ms":            hop(telemetry.HopEdge),
		"server.shed_per_op":             ratio(float64(oa.shed-ob.shed), ops),
		"server.stream_events_per_op":    ratio(reg("discover_edge_stream_events_total"), ops),
		"server.stream_lag_p50_ms":       hist("discover_stream_delivery_lag_seconds", 0.5),
		"session.fifo_wait_p50_ms":       hist("discover_fifo_wait_seconds", 0.5),
		"session.enqueue_lag_p50_ms":     ms(rec.quantile("enqueue_lag", 0.5)),
		"session.enqueue_lag_p99_ms":     ms(rec.quantile("enqueue_lag", 0.99)),
		"session.overflow_per_op":        ratio(reg("discover_edge_fifo_overflow_total"), ops),
		"core.relay_msgs_per_invocation": ratio(float64(oa.relay.Delivered-ob.relay.Delivered), relayInv),
		"core.relay_dropped":             float64(oa.relay.Dropped - ob.relay.Dropped),
		"core.relay_failures":            float64(oa.relay.Failures - ob.relay.Failures),
		"core.relay_reordered_per_op":    ratio(rec.counts["reordered"], ops),
		"core.relay_flush_p50_ms":        hist("discover_relay_flush_seconds", 0.5),
		"core.relay_queue_wait_p50_ms":   hist("discover_relay_queue_wait_seconds", 0.5),
		"core.relay_queue_wait_p99_ms":   hist("discover_relay_queue_wait_seconds", 0.99),
		"core.queue_self_ms":             hop(telemetry.HopQueue),
		"orb.invocations_per_op":         ratio(invocations, ops),
		"orb.oneways_per_op":             ratio(oneways, ops),
		"orb.writes_per_op":              ratio(float64(oa.orb.Writes-ob.orb.Writes), ops),
		"orb.bytes_per_invocation":       ratio(float64(oa.orb.BytesOut-ob.orb.BytesOut), invocations+oneways),
		"orb.rpc_self_ms":                hop(telemetry.HopRPC),
		"wire.intern_hit_ratio":          ratio(interned, interned+defs),
		"wire.wan_bytes_per_op":          ratio(float64(a.wan.Bytes-b.wan.Bytes), ops),
		"wire.wan_msgs_per_op":           ratio(float64(a.wan.Msgs-b.wan.Msgs), ops),
		"appproto.phase_p50_ms":          ms(rec.quantile("phase", 0.5)),
		"appproto.commands_per_phase":    ratio(rec.counts["commands"], phases),
		"appproto.servant_self_ms":       hop(telemetry.HopServant),
		"collab.ops_applied_per_op":      ratio(applied, ops),
		"collab.dup_ratio":               ratio(reg("discover_collab_ops_duplicate_total"), applied),
		"collab.ops_evicted_per_op":      ratio(reg("discover_collab_ops_evicted_total"), ops),
		"collab.syncs":                   reg("discover_collab_syncs_total"),
		"lockmgr.acquire_p50_ms":         hist("discover_lock_acquire_seconds", 0.5),
		"storage.wal_appends_per_op":     ratio(walAppends, ops),
		"storage.wal_bytes_per_op":       ratio(reg("discover_storage_wal_bytes_total"), ops),
		"storage.snapshots":              reg("discover_storage_snapshots_total"),
		"storage.recovery_p50_ms":        hist("discover_storage_recovery_seconds", 0.5),
		"go.gc_cycles_per_op":            ratio(float64(plain.proc.gcCycles), ops),
		"go.gc_pause_p99_ms":             ms(plain.proc.pauseQuantile(0.99)),
		"go.alloc_bytes_per_op":          ratio(float64(plain.proc.allocBytes), ops),
		"bench.gen_late_p99_ms":          ms(rec.quantile("gen_late", 0.99)),
	}
	for k, v := range p {
		m[k] = v
	}

	plainCPU := ratio(float64(plain.proc.cpu.Microseconds()), ops)
	tracedCPU := ratio(float64(traced.proc.cpu.Microseconds()), float64(traced.ops))
	m["bench.trace_overhead"] = ratio(tracedCPU, plainCPU)

	// Reconcile: each probed layer's cost per call times its call count in
	// the untraced half, summed, against that half's process CPU.
	busy := pushes*p["session.push_ns"] +
		(invocations+oneways)*p["orb.invoke_us"]*1e3 +
		(4*phases+2*rec.counts["commands"])*(p["wire.codec_encode_ns"]+p["wire.codec_decode_ns"]) +
		applied*p["collab.broadcast_us"]*1e3 +
		rec.counts["lock_ops"]*p["lockmgr.try_acquire_ns"] +
		walAppends*p["storage.record_us"]*1e3
	m["bench.layer_sum_ratio"] = ratio(busy, float64(plain.proc.cpu.Nanoseconds()))

	for _, l := range perLayerNames {
		r.Metrics[l.name] = metric{m[l.name], l.unit}
	}
	r.Detail["cpu_us_per_op_untraced"] = metric{plainCPU, "us"}
	r.Detail["cpu_us_per_op_traced"] = metric{tracedCPU, "us"}
	r.Detail["trace_hops"] = metric{float64(len(hops[telemetry.HopEdge])), "count"}
	for name, st := range selfTimes(spans) {
		r.Detail["self."+name+"_ms"] = metric{ms(st.total) / float64(st.n), "ms"}
	}
}
