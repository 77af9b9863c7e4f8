package main

// perLayer lists every per-layer metric a traced run reports, in
// BENCHMARK.json order. A layer a workload does not exercise reads 0.
var perLayer = func() []metric {
	l := []metric{
		{Name: "core.plan_ms", Unit: "ms"},
		{Name: "core.assignments", Unit: "count"},
		{Name: "core.fetches", Unit: "count"},
		{Name: "transform.apply_ms", Unit: "ms"},
		{Name: "transform.self_ms", Unit: "ms"},
		{Name: "transform.noops", Unit: "count"},
		{Name: "transform.local_mb", Unit: "MB"},
		{Name: "transform.peer_mb", Unit: "MB"},
		{Name: "transform.storage_mb", Unit: "MB"},
		{Name: "transform.copy_amp", Unit: "ratio"},
		{Name: "transform.alloc_mb", Unit: "MB"},
		{Name: "transform.allocs", Unit: "count"},
		{Name: "store.fetch.calls", Unit: "count"},
		{Name: "store.fetch_ms", Unit: "ms"},
		{Name: "store.fetch_mb", Unit: "MB"},
		{Name: "store.stage.calls", Unit: "count"},
		{Name: "store.stage_ms", Unit: "ms"},
		{Name: "store.stage_mb", Unit: "MB"},
		{Name: "store.commit.calls", Unit: "count"},
		{Name: "store.commit_ms", Unit: "ms"},
		{Name: "store.retries", Unit: "count"},
	}
	for _, ep := range storeEndpoints {
		l = append(l, metric{Name: "store.req." + ep, Unit: "count"})
	}
	for _, ep := range storeEndpoints {
		l = append(l, metric{Name: "store.srv_ms." + ep, Unit: "ms"})
	}
	return append(l,
		metric{Name: "store.bytes_in_mb", Unit: "MB"},
		metric{Name: "store.bytes_out_mb", Unit: "MB"},
		metric{Name: "store.wait_ms", Unit: "ms"},
		metric{Name: "coordinator.events", Unit: "count"},
		metric{Name: "coordinator.plans", Unit: "count"},
		metric{Name: "coordinator.preemptions", Unit: "count"},
		metric{Name: "coordinator.decide_ms", Unit: "ms"},
		metric{Name: "coordinator.self_ms", Unit: "ms"},
		metric{Name: "api.submit_ms", Unit: "ms"},
		metric{Name: "api.scale_ms", Unit: "ms"},
		metric{Name: "api.cancel_ms", Unit: "ms"},
		metric{Name: "verify_ms", Unit: "ms"},
		metric{Name: "go.gc_cycles", Unit: "count"},
		metric{Name: "go.gc_pause_ms", Unit: "ms"},
		metric{Name: "reconcile.gap_pct", Unit: "%"},
		metric{Name: "trace.overhead_ms", Unit: "ms"},
		metric{Name: "trace.spans", Unit: "count"},
	)
}()
