package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"time"

	"tenplex/internal/checkpoint"
	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/transform"
)

// benchJob is the job name every datapath reconfiguration runs under.
const benchJob = "bench"

// datapathSpec is one reconfiguration replayed from the same starting
// state: plan (core.GeneratePlan) → distributed apply
// (transform.ApplyDistributed) against one loopback store daemon per
// device → bit check of the committed state.
type datapathSpec struct {
	m        *model.Model
	from, to parallel.Config
	fromDevs cluster.Allocation
	toDevs   cluster.Allocation
	// failed devices fail-stop before planning: the source PTC loses
	// them, the plan may fall back to the checkpoint, and the target is
	// aligned to the survivors (the coordinator's recovery path).
	failed []cluster.DeviceID
}

func devs(ids ...int) cluster.Allocation {
	out := make(cluster.Allocation, len(ids))
	for i, d := range ids {
		out[i] = cluster.DeviceID(d)
	}
	return out
}

// tp4dp4Migrate moves a many-small-tensor model from TP4 on devices
// 0-3 to DP4 on fresh devices 4-7: every destination tensor merges four
// remote ranges, so the run is bound by request count.
func tp4dp4Migrate() datapathSpec {
	return datapathSpec{
		m:    model.GPTCustom(12, 48, 4, 192, 32),
		from: parallel.Config{TP: 4, PP: 1, DP: 1}, fromDevs: devs(0, 1, 2, 3),
		to: parallel.Config{TP: 1, PP: 1, DP: 4}, toDevs: devs(4, 5, 6, 7),
	}
}

// failstopRecover loses device 5 of a TP4·DP2 job and recovers to
// TP2·DP3 on the six survivors: few large tensors, bound by bytes, with
// about half the assignments no-ops.
func failstopRecover() datapathSpec {
	return datapathSpec{
		m:    model.GPTCustom(4, 512, 8, 2048, 64),
		from: parallel.Config{TP: 4, PP: 1, DP: 2}, fromDevs: devs(0, 1, 2, 3, 4, 5, 6, 7),
		to: parallel.Config{TP: 2, PP: 1, DP: 3}, toDevs: devs(0, 1, 2, 3, 4, 6),
		failed: []cluster.DeviceID{5},
	}
}

// goldenState fills every tensor of m from the workload seed.
func goldenState(m *model.Model, seed int64) map[core.TensorID]*tensor.Tensor {
	out := map[core.TensorID]*tensor.Tensor{}
	for i, lp := range m.StateParams() {
		t := tensor.New(lp.Param.DType, lp.Param.Shape...)
		t.FillRandDense(seed*1_000_003+int64(i), 1)
		out[core.TensorID(lp.Path())] = t
	}
	return out
}

// datapathRig is one set-up instance of a datapath workload.
type datapathRig struct {
	spec    datapathSpec
	topo    *cluster.Topology
	stores  *storeCluster
	base    *core.PTC
	golden  map[core.TensorID]*tensor.Tensor
	initial map[string]*tensor.Tensor // model path → source sub-tensor
	apply   map[cluster.DeviceID]store.Access
	local   map[cluster.DeviceID]store.Access // in-process view of each store's FS
	ckpt    transform.StorageReader
}

// newDatapathRig sets the workload up: golden state, source
// sub-tensors, one store daemon per device (traced with rec, wrapped
// with wrap when non-nil) and, on fail-stop, the checkpoint.
func newDatapathRig(spec datapathSpec, seed int64, rec *recorder, wrap func(http.Handler) http.Handler) (*datapathRig, error) {
	r := &datapathRig{spec: spec, topo: cluster.OnPrem16()}
	base, err := parallel.BuildPTC(spec.m, spec.from, spec.fromDevs)
	if err != nil {
		return nil, err
	}
	r.base = base
	r.golden = goldenState(spec.m, seed)
	r.initial = map[string]*tensor.Tensor{}
	for _, d := range base.Devices {
		for _, s := range base.Place[d] {
			r.initial[transform.ModelPath(benchJob, d, s.Tensor)] = r.golden[s.Tensor].Slice(s.Region)
		}
	}
	n := 0
	for _, d := range append(append(cluster.Allocation(nil), spec.fromDevs...), spec.toDevs...) {
		n = max(n, int(d)+1)
	}
	if r.stores, err = startStores(n, rec, wrap); err != nil {
		return nil, err
	}
	r.apply = map[cluster.DeviceID]store.Access{}
	r.local = map[cluster.DeviceID]store.Access{}
	lost := map[cluster.DeviceID]bool{}
	for _, d := range spec.failed {
		lost[d] = true
	}
	for d, acc := range r.stores.access {
		if !lost[d] {
			r.apply[d] = acc
		}
		r.local[d] = store.Local{FS: r.stores.nodes[d].fs}
	}
	if len(spec.failed) > 0 {
		// The recovery plan may read lost ranges back from the latest
		// checkpoint, as the coordinator's does.
		if err := r.reset(); err != nil {
			r.close()
			return nil, err
		}
		storage := store.Local{FS: store.NewMemFS()}
		if err := checkpoint.Save(storage, benchJob, 0, base, r.local); err != nil {
			r.close()
			return nil, err
		}
		if r.ckpt, err = checkpoint.Open(storage, benchJob, 0); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *datapathRig) close() { r.stores.close() }

// reset puts the starting state back on the stores, in-process and
// untimed: the job tree is dropped and the immutable source
// sub-tensors are re-linked by reference.
func (r *datapathRig) reset() error {
	if err := r.stores.wipe("/job/" + benchJob); err != nil {
		return err
	}
	for _, d := range r.base.Devices {
		fs := r.stores.nodes[d].fs
		for _, s := range r.base.Place[d] {
			p := transform.ModelPath(benchJob, d, s.Tensor)
			if err := fs.PutTensor(p, r.initial[p]); err != nil {
				return err
			}
		}
	}
	return nil
}

// plan is the timed planning step: degrade the source on fail-stop,
// build and align the target, generate the plan.
func (r *datapathRig) plan() (*core.Plan, error) {
	from := r.base
	opts := core.PlanOptions{Topo: r.topo}
	to, err := parallel.BuildPTC(r.spec.m, r.spec.to, r.spec.toDevs)
	if err != nil {
		return nil, err
	}
	if len(r.spec.failed) > 0 {
		from = r.base.WithoutDevices(r.spec.failed...)
		opts.StorageFallback = true
		to = core.AlignDevices(from, to)
	}
	return core.GeneratePlan(from, to, opts)
}

// datapathOp is what one reconfiguration did.
type datapathOp struct {
	op      int64
	latency time.Duration
	planDur time.Duration
	stats   transform.Stats
	// assignments and fetches count the plan's work; the plan itself is
	// not kept, so a long run holds no per-operation state.
	assignments, fetches int
	mallocs              uint64
	verifyMs             float64
}

// reconfigure runs one timed reconfiguration from the reset state and
// bit-checks the result outside the timed region.
func (r *datapathRig) reconfigure(rec *recorder, op int64) (datapathOp, error) {
	out := datapathOp{op: op}
	if err := r.reset(); err != nil {
		return out, fmt.Errorf("reset: %w", err)
	}
	rec.setOp(op)
	rootID, rootStart := rec.begin()
	planID, planStart := rec.begin()
	m0 := uint64(0)
	if rec != nil {
		m0 = mallocs()
	}
	t0 := time.Now()
	plan, err := r.plan()
	rec.end(planID, rootID, spanPlan, planStart)
	if err != nil {
		return out, fmt.Errorf("plan: %w", err)
	}
	applyID, applyStart := rec.begin()
	rec.setParent(applyID)
	st, err := transform.ApplyDistributed(benchJob, plan, r.topo, r.apply, r.ckpt)
	out.latency = time.Since(t0)
	rec.end(applyID, rootID, spanApply, applyStart)
	rec.end(rootID, 0, spanReconfig, rootStart)
	if rec != nil {
		out.mallocs = mallocs() - m0
	}
	out.stats = st
	out.assignments, out.fetches = len(plan.Assignments), countFetches(plan)
	if err != nil {
		return out, fmt.Errorf("apply: %w", err)
	}
	v0 := time.Now()
	err = r.verify(plan.To)
	out.verifyMs = float64(time.Since(v0)) / 1e6
	return out, err
}

// verify reads the committed state back with transform.ReadPTC and
// requires it to equal the golden tensors bit for bit.
func (r *datapathRig) verify(to *core.PTC) error {
	got, err := transform.ReadPTC(benchJob, to, r.local)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if len(got) != len(r.golden) {
		return fmt.Errorf("verify: read %d tensors, want %d", len(got), len(r.golden))
	}
	ids := make([]string, 0, len(got))
	for id := range got {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		if !sameTensor(got[core.TensorID(id)], r.golden[core.TensorID(id)]) {
			return fmt.Errorf("verify: tensor %s differs from the golden state", id)
		}
	}
	for _, d := range r.spec.toDevs {
		if exists(r.stores.nodes[d].fs, transform.StagingRoot(benchJob)) {
			return fmt.Errorf("verify: staging tree left behind on device %d", d)
		}
	}
	return nil
}

func sameTensor(a, b *tensor.Tensor) bool {
	return a != nil && b != nil && a.DType() == b.DType() &&
		tensor.ShapeEqual(a.Shape(), b.Shape()) && bytes.Equal(a.Data(), b.Data())
}

// runDatapath measures one datapath workload: a closed loop of
// reconfigurations, one in flight, for the run's budget.
func runDatapath(spec datapathSpec, cfg runConfig) (*result, error) {
	res := &result{layers: map[string]float64{}}
	var rig *datapathRig
	for i := 0; i < setupReps && res.failed == 0; i++ { // a failed set-up is not repeated
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = newDatapathRig(spec, cfg.seed, cfg.rec, nil); err != nil {
			return nil, err
		}
		// One untimed warm-up reconfiguration opens the connection
		// pools and the batch-capability probes before measuring.
		if _, err := rig.reconfigure(cfg.rec, -1); err != nil {
			res.attempted++
			res.fail("warm-up: %v", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	defer rig.close()

	var (
		ops      []datapathOp
		wires    []wire
		crossed  int64
		reconfig time.Duration
	)
	heap := startHeapSampler()
	gc0 := readGC()
	start := time.Now()
	for op := int64(0); cfg.more(start, len(res.opMs)); op++ {
		w0 := rig.stores.wire()
		o, err := rig.reconfigure(cfg.rec, op)
		res.attempted++
		if err != nil {
			res.fail("op %d: %v", op, err)
			res.opMs = append(res.opMs, missMs)
			continue
		}
		res.opMs = append(res.opMs, ms(o.latency))
		ops = append(ops, o)
		wires = append(wires, rig.stores.wire().sub(w0))
		crossed += o.stats.PeerBytes + o.stats.StorageBytes
		reconfig += o.latency
	}
	gc1 := readGC()
	res.peakHeapMB = heap.finish()
	if len(ops) == 0 {
		return res, nil
	}
	n := float64(len(ops))
	res.report = []metric{
		{"reconfig_p50_ms", percentile(res.opMs, 0.5), "ms"},
		{"reconfig_p90_ms", percentile(res.opMs, 0.9), "ms"},
		{"moved_mb_per_s", float64(crossed) / 1e6 / reconfig.Seconds(), "MB/s"},
		{"reconfigs", float64(len(res.opMs)), "count"},
	}
	L := res.layers
	last := ops[len(ops)-1]
	L["core.assignments"] = float64(last.assignments)
	L["core.fetches"] = float64(last.fetches)
	L["go.gc_cycles"] = float64(gc1.cycles-gc0.cycles) / n
	L["go.gc_pause_ms"] = float64(gc1.pauseNs-gc0.pauseNs) / 1e6 / n
	for _, o := range ops {
		L["transform.noops"] += float64(o.stats.Noops) / n
		L["transform.local_mb"] += float64(o.stats.LocalBytes) / 1e6 / n
		L["transform.peer_mb"] += float64(o.stats.PeerBytes) / 1e6 / n
		L["transform.storage_mb"] += float64(o.stats.StorageBytes) / 1e6 / n
		L["transform.copy_amp"] += o.stats.CopyAmplification() / n
		L["transform.alloc_mb"] += float64(o.stats.AllocBytes) / 1e6 / n
		L["transform.allocs"] += float64(o.mallocs) / n
		L["verify_ms"] += o.verifyMs / n
	}
	for _, w := range wires {
		L["store.bytes_in_mb"] += float64(w.bytesIn) / 1e6 / n
		L["store.bytes_out_mb"] += float64(w.bytesOut) / 1e6 / n
		L["store.retries"] += float64(w.retries) / n
	}
	if cfg.rec != nil {
		reconcileDatapath(res, cfg.rec, ops, wires)
		checkSeedIndependent(res, spec, cfg, ops[0], wires[0])
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func countFetches(p *core.Plan) int {
	n := 0
	for _, a := range p.Assignments {
		n += len(a.Fetch)
	}
	return n
}
