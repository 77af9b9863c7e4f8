package main

import (
	"fmt"
	"maps"
)

// reconcileBound is the largest share of a reconfiguration's wall time
// that the blocking-path self times (plan, fetch, stage, commit and
// transform self time) may leave unexplained.
const reconcileBound = 0.05

// reconcileDatapath turns the traced spans into per-layer metrics and
// checks that the trace agrees with the program's own accounting:
//
//   - server payload bytes out = client fetched bytes
//     = transform.Stats LocalBytes + PeerBytes (every fetched range goes
//     through a store daemon; checkpoint reads do not);
//   - server bytes in = client upload bodies (payload plus tensor
//     header);
//   - client calls = server requests: fetch = query + batch, stage =
//     upload, commit = list + delete + rename (capability probes are
//     made inside the client and have no call of their own);
//   - the self times add up to the reconfiguration within reconcileBound;
//   - request and byte counts repeat exactly from one reconfiguration
//     to the next.
//
// A reconfiguration failing any check counts as a failed operation.
func reconcileDatapath(res *result, rec *recorder, ops []datapathOp, wires []wire) {
	byOp := rec.byOp()
	n := float64(len(ops))
	L := res.layers
	var first opBreakdown
	for i, o := range ops {
		b, err := breakdown(byOp[o.op])
		if err != nil {
			res.fail("op %d: trace: %v", o.op, err)
			continue
		}
		addBreakdown(L, b, n)
		L["core.plan_ms"] += float64(b.plan) / 1e6 / n
		L["transform.apply_ms"] += float64(b.window) / 1e6 / n
		L["transform.self_ms"] += float64(b.self) / 1e6 / n
		w := wires[i]
		fetched := o.stats.LocalBytes + o.stats.PeerBytes
		var problem string
		switch {
		case w.bytesOut != b.bytes[spanFetch] || w.bytesOut != fetched:
			problem = fmt.Sprintf("bytes out %d, client fetched %d, Stats local+peer %d", w.bytesOut, b.bytes[spanFetch], fetched)
		case w.bytesIn != b.bytes[spanStage]:
			problem = fmt.Sprintf("bytes in %d, client upload bodies %d", w.bytesIn, b.bytes[spanStage])
		case !callsMatch(b):
			problem = fmt.Sprintf("client calls %v, server requests %v", b.calls, b.srvReq)
		case gapShare(b) > reconcileBound || gapShare(b) < -reconcileBound:
			problem = fmt.Sprintf("self times leave %.1f%% of the reconfiguration unexplained", 100*gapShare(b))
		case i > 0 && (!maps.Equal(b.srvReq, first.srvReq) || w.bytesIn != wires[0].bytesIn || w.bytesOut != wires[0].bytesOut):
			problem = fmt.Sprintf("requests %v and bytes %d/%d differ from the first reconfiguration's %v and %d/%d",
				b.srvReq, w.bytesIn, w.bytesOut, first.srvReq, wires[0].bytesIn, wires[0].bytesOut)
		}
		if problem != "" {
			res.fail("op %d: reconcile: %s", o.op, problem)
		}
		if i == 0 {
			first = b
		}
	}
}

// storeEndpoints are the store daemon's endpoints, reported by request
// count and handler time.
var storeEndpoints = []string{"query", "batch", "capabilities", "upload", "blob", "stat", "list", "delete", "rename"}

// addBreakdown folds one operation's store-side breakdown into the
// per-operation means.
func addBreakdown(L map[string]float64, b opBreakdown, n float64) {
	L["store.fetch_ms"] += float64(b.fetch) / 1e6 / n
	L["store.stage_ms"] += float64(b.stage) / 1e6 / n
	L["store.commit_ms"] += float64(b.commit) / 1e6 / n
	L["store.fetch.calls"] += float64(b.calls[spanFetch]) / n
	L["store.stage.calls"] += float64(b.calls[spanStage]) / n
	L["store.commit.calls"] += float64(b.calls[spanCommit]) / n
	L["store.fetch_mb"] += float64(b.bytes[spanFetch]) / 1e6 / n
	L["store.stage_mb"] += float64(b.bytes[spanStage]) / 1e6 / n
	var srv int64
	for _, ep := range storeEndpoints {
		L["store.req."+ep] += float64(b.srvReq[ep]) / n
		L["store.srv_ms."+ep] += float64(b.srvNs[ep]) / 1e6 / n
		srv += b.srvNs[ep]
	}
	L["store.wait_ms"] += float64(b.clientNs-srv) / 1e6 / n
	L["reconcile.gap_pct"] += 100 * gapShare(b) / n
}

func callsMatch(b opBreakdown) bool {
	r := b.srvReq
	return b.calls[spanFetch] == r["query"]+r["batch"] &&
		b.calls[spanStage] == r["upload"] &&
		b.calls[spanCommit] == r["list"]+r["delete"]+r["rename"]
}

// gapShare is the share of the operation's wall time outside plan and
// the attributed window.
func gapShare(b opBreakdown) float64 {
	if b.total == 0 {
		return 0
	}
	return float64(b.total-b.plan-b.window) / float64(b.total)
}

// checkSeedIndependent replays one traced reconfiguration with the
// golden state of another seed and requires the same request and byte
// counts: the workload's shape, not its data, sets them.
func checkSeedIndependent(res *result, spec datapathSpec, cfg runConfig, op datapathOp, w wire) {
	res.attempted++
	rig, err := newDatapathRig(spec, cfg.seed+1, cfg.rec, nil)
	if err != nil {
		res.fail("seed check: %v", err)
		return
	}
	defer rig.close()
	if _, err := rig.reconfigure(cfg.rec, -1); err != nil {
		res.fail("seed check: warm-up: %v", err)
		return
	}
	const opOtherSeed = -2
	w0 := rig.stores.wire()
	other, err := rig.reconfigure(cfg.rec, opOtherSeed)
	if err != nil {
		res.fail("seed check: %v", err)
		return
	}
	w1 := rig.stores.wire().sub(w0)
	byOp := cfg.rec.byOp()
	a, errA := breakdown(byOp[op.op])
	b, errB := breakdown(byOp[opOtherSeed])
	if errA != nil || errB != nil || !maps.Equal(a.srvReq, b.srvReq) || w1 != w ||
		other.stats.PeerBytes != op.stats.PeerBytes || other.stats.LocalBytes != op.stats.LocalBytes {
		res.fail("seed check: seed %d gives requests %v, bytes %+v; seed %d gives %v, %+v",
			cfg.seed, a.srvReq, w, cfg.seed+1, b.srvReq, w1)
	}
}

// reconcileCoordd is reconcileDatapath for the service path. The
// transformer runs inside the coordinator, so the window is the whole
// reconfiguration and its self time (API, decision plane, planning and
// transformer work, everything but store calls) is the coordinator's.
// Only the call-count identity and the self-time sum are checked: the
// daemons' byte counters also see the deployment and checkpoint
// traffic around the window.
func reconcileCoordd(res *result, rec *recorder, iters []coorddIter) {
	byOp := rec.byOp()
	n := float64(len(iters))
	for _, it := range iters {
		b, err := breakdown(byOp[it.op])
		if err != nil {
			res.fail("op %d: trace: %v", it.op, err)
			continue
		}
		addBreakdown(res.layers, b, n)
		res.layers["coordinator.self_ms"] += float64(b.self) / 1e6 / n
		switch {
		case !callsMatch(b):
			res.fail("op %d: reconcile: client calls %v, server requests %v", it.op, b.calls, b.srvReq)
		case gapShare(b) > reconcileBound || gapShare(b) < -reconcileBound:
			res.fail("op %d: reconcile: self times leave %.1f%% unexplained", it.op, 100*gapShare(b))
		}
	}
}
