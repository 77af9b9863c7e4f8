package transform

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/obs"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

// The staging engine. Every Apply stages its plan here, whatever the
// stores and whether or not it runs one instance per worker. A
// partition of assignments moves through three phases:
//
//  1. per-assignment prep (parallel): noop pointer staging, destination
//     allocation (or, for the materialized reference, the whole
//     fetch-and-assemble fill), immediate fetches for every range that
//     cannot join a batch (stores without BatchQuerier such as Local,
//     storage fallback, overlapping targets, NoBatch), and deferral of
//     the rest;
//  2. per-source batches (parallel across sources): each source store
//     answers one store.BatchQueryInto whose frames scatter-write
//     straight into the destination buffers;
//  3. staging uploads (parallel across assignments).
//
// The first fatal error anywhere cancels the shared context, so every
// phase of every partition abandons its remaining work.

// The paper runs one State Transformer instance per resource (§5.1);
// each instance executes the subset of the reconfiguration plan whose
// destinations it owns, fetching remote ranges from peer Tensor Stores.
// ApplyDistributed reproduces that deployment shape through
// Transformer.Topo: one engine partition per worker, a shared fate, and
// a global barrier before the single commit.
func ApplyDistributed(job string, plan *core.Plan, topo *cluster.Topology,
	stores map[cluster.DeviceID]store.Access, storage StorageReader) (Stats, error) {
	return (&Transformer{Job: job, Stores: stores, Storage: storage, Topo: topo}).Apply(context.TODO(), plan)
}

// stage runs every partition of the plan concurrently and collects the
// fatal errors; ones caused by the shared cancellation are dropped, as
// which operations a doomed attempt reached is scheduling, not outcome.
func (tr *Transformer) stage(ctx context.Context, cancel context.CancelFunc, plan *core.Plan) (Stats, []error) {
	var (
		mu   sync.Mutex
		errs []error
	)
	fail := func(err error) {
		mu.Lock()
		if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
			errs = append(errs, err)
		}
		mu.Unlock()
		cancel()
	}
	parts := tr.partition(plan)
	stats := make([]Stats, len(parts))
	runBounded(ctx, len(parts), len(parts), func(i int) {
		stats[i] = tr.stagePartition(ctx, fail, plan, parts[i])
	})
	var st Stats
	for _, s := range stats {
		st.merge(s)
	}
	return st, errs
}

// partition splits the assignments by the worker owning their
// destination device; without a topology the plan is one partition.
func (tr *Transformer) partition(plan *core.Plan) [][]core.Assignment {
	if tr.Topo == nil {
		return [][]core.Assignment{plan.Assignments}
	}
	index := map[int]int{}
	var parts [][]core.Assignment
	for _, a := range plan.Assignments {
		w := tr.Topo.WorkerOf(a.Device)
		i, ok := index[w]
		if !ok {
			i = len(parts)
			index[w] = i
			parts = append(parts, nil)
		}
		parts[i] = append(parts[i], a)
	}
	return parts
}

// prep is one assignment moving through the engine.
type prep struct {
	a      core.Assignment
	out    *tensor.Tensor // nil when the noop fast path staged by pointer
	st     Stats
	start  time.Time
	err    error
	staged bool
}

// batchFetch is one plan range deferred to a per-source batch: entry
// scatter-writes into p's destination buffer, and bytes is attributed
// to p's stats when the batch lands.
type batchFetch struct {
	src   cluster.DeviceID
	p     *prep
	entry store.BatchEntry
	bytes int64
}

// stagePartition stages one partition's assignments through the three
// phases. Only fully staged assignments contribute to the returned
// counters.
func (tr *Transformer) stagePartition(ctx context.Context, fail func(error), plan *core.Plan, as []core.Assignment) Stats {
	par := tr.Parallelism
	if par <= 0 {
		par = 8
	}
	preps := make([]prep, len(as))
	var (
		mu       sync.Mutex
		deferred []batchFetch
	)

	runBounded(ctx, par, len(preps), func(i int) {
		p := &preps[i]
		p.a, p.start = as[i], time.Now()
		local, err := tr.prepAssignment(ctx, plan, p)
		if err != nil {
			p.err = err
			fail(err)
			return
		}
		if len(local) > 0 {
			mu.Lock()
			deferred = append(deferred, local...)
			mu.Unlock()
		}
	})

	groups := map[cluster.DeviceID][]batchFetch{}
	for _, bf := range deferred {
		groups[bf.src] = append(groups[bf.src], bf)
	}
	srcs := make([]cluster.DeviceID, 0, len(groups))
	for d := range groups {
		srcs = append(srcs, d)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	runBounded(ctx, par, len(srcs), func(gi int) {
		src := srcs[gi]
		group := groups[src]
		// Order entries by path then source range: that is the sequence
		// the server's coalescer sees, so adjacent ranges of one tensor
		// end up in consecutive entries and merge into single frames. It
		// also makes the request deterministic despite the concurrent
		// prep phase.
		sort.Slice(group, func(i, j int) bool {
			if group[i].entry.Path != group[j].entry.Path {
				return group[i].entry.Path < group[j].entry.Path
			}
			return regionLess(group[i].entry.Reg, group[j].entry.Reg)
		})
		entries := make([]store.BatchEntry, len(group))
		for i, bf := range group {
			entries[i] = bf.entry
		}
		bq := tr.Stores[src].(store.BatchQuerier)
		if _, err := bq.BatchQueryInto(ctx, entries); err != nil {
			fail(fmt.Errorf("transform: batch fetch from dev %d: %w", src, err))
			return
		}
		mu.Lock()
		for _, bf := range group {
			bf.p.st.BytesCopied += bf.bytes
			if src == bf.p.a.Device {
				bf.p.st.LocalBytes += bf.bytes
			} else {
				bf.p.st.PeerBytes += bf.bytes
			}
		}
		mu.Unlock()
	})

	runBounded(ctx, par, len(preps), func(i int) {
		p := &preps[i]
		if p.err != nil || p.out == nil {
			return
		}
		dst := tr.Stores[p.a.Device]
		if err := upload(ctx, dst, stagingPath(tr.Job, p.a.Device, p.a.Tensor), p.out); err != nil {
			p.err = fmt.Errorf("transform: stage %s on dev %d: %w", p.a.Tensor, p.a.Device, err)
			fail(p.err)
			return
		}
		if uploadCopies(dst) {
			p.st.BytesCopied += int64(p.out.NumBytes())
		}
		p.staged = true
	})

	var st Stats
	for i := range preps {
		p := &preps[i]
		tr.recordSpan(ctx, p)
		if !p.staged {
			continue
		}
		st.Assignments++
		if p.a.IsNoop() {
			st.Noops++
		}
		st.merge(p.st)
	}
	return st
}

// prepAssignment fills the materialized reference's destination, or
// stages a noop by pointer, or allocates the destination and routes
// every plan range: ranges read from batch-capable device stores with
// pairwise-disjoint targets are returned for the batch phase,
// everything else fetches immediately.
func (tr *Transformer) prepAssignment(ctx context.Context, plan *core.Plan, p *prep) ([]batchFetch, error) {
	a := p.a
	meta := plan.To.Tensors[a.Tensor]
	dst := tr.Stores[a.Device]

	if tr.Pipeline == Materialized {
		out, err := tr.materialize(ctx, a, meta.DType, &p.st)
		p.out = out
		return nil, err
	}

	if a.IsNoop() && !uploadCopies(dst) {
		if t, err := dst.Query(ModelPath(tr.Job, a.Device, a.Tensor), nil); err == nil {
			if err := upload(ctx, dst, stagingPath(tr.Job, a.Device, a.Tensor), t); err != nil {
				return nil, fmt.Errorf("transform: stage %s on dev %d: %w", a.Tensor, a.Device, err)
			}
			p.st.LocalBytes += a.Region.NumBytes(meta.DType)
			p.staged = true
			return nil, nil
		}
		// The sub-tensor is unexpectedly absent; fall through so the
		// general path reports the fetch error.
	}

	out := tensor.NewFromRegion(meta.DType, a.Region)
	p.out = out
	p.st.AllocBytes += int64(out.NumBytes())

	covered := 0
	for i := range a.Fetch {
		covered += a.Fetch[i].Want.NumElems()
	}
	if covered < a.Region.NumElems() {
		return nil, fmt.Errorf("transform: assemble %s%v: fetches cover %d of %d elements",
			a.Tensor, a.Region, covered, a.Region.NumElems())
	}

	// Overlapping targets force the immediate sequential path: batches
	// from different sources scatter concurrently, and two writers for
	// one destination byte would race.
	batchable := !tr.NoBatch && disjointTargets(a.Fetch)
	var deferred []batchFetch
	for _, f := range a.Fetch {
		if batchable && f.Src.Kind == core.FromDevice {
			if _, ok := tr.Stores[f.Src.Device].(store.BatchQuerier); ok {
				target, local := fetchRegions(a, f)
				deferred = append(deferred, batchFetch{
					src: f.Src.Device,
					p:   p,
					entry: store.BatchEntry{
						Path: ModelPath(tr.Job, f.Src.Device, a.Tensor),
						Reg:  local,
						Dst:  out,
						At:   target,
					},
					bytes: f.Want.NumBytes(meta.DType),
				})
				continue
			}
		}
		fs, err := tr.fetchInto(ctx, a, f, meta.DType, out)
		p.st.merge(fs)
		if err != nil {
			return nil, err
		}
	}
	return deferred, nil
}

// recordSpan records one datapath span per assignment when the tracer
// is deep. The duration runs from prep start to staging end and so
// includes the shared batch wait; spans for assignments abandoned by
// cancellation are suppressed along with their errors.
func (tr *Transformer) recordSpan(ctx context.Context, p *prep) {
	if !tr.Obs.Deep() {
		return
	}
	if p.err != nil && ctx.Err() != nil && errors.Is(p.err, ctx.Err()) {
		return
	}
	if p.err == nil && !p.staged {
		return // abandoned before staging: scheduling, not outcome
	}
	attrs := map[string]any{
		"tensor": string(p.a.Tensor),
		"device": int(p.a.Device),
	}
	if p.a.IsNoop() {
		attrs["noop"] = true
	}
	if b := p.st.PlanBytes(); b > 0 {
		attrs["bytes"] = b
	}
	if p.st.AllocBytes > 0 {
		attrs["alloc_bytes"] = p.st.AllocBytes
	}
	if p.err != nil {
		attrs["err"] = p.err.Error()
	}
	tr.Obs.Record(obs.SpanAssignment, obs.CatDatapath, time.Since(p.start).Nanoseconds(), attrs)
}

// regionLess orders regions by their bounds, dimension-major.
func regionLess(a, b tensor.Region) bool {
	for k := range a {
		if k >= len(b) {
			return false
		}
		if a[k].Lo != b[k].Lo {
			return a[k].Lo < b[k].Lo
		}
		if a[k].Hi != b[k].Hi {
			return a[k].Hi < b[k].Hi
		}
	}
	return len(a) < len(b)
}

// runBounded runs fn(0..n-1) on up to par goroutines, abandoning the
// remaining indices once ctx is canceled.
func runBounded(ctx context.Context, par, n int, fn func(int)) {
	if n == 0 {
		return
	}
	if par > n {
		par = n
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					continue
				}
				fn(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
}
