package transform

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"tenplex/internal/chaos"
	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

// restStores spins up one loopback Tensor Store server per device and
// returns REST clients for them, a counter of /batch requests seen
// across all servers, and a shutdown func.
func restStores(devs cluster.Allocation) (map[cluster.DeviceID]store.Access, *atomic.Int64, func()) {
	stores := map[cluster.DeviceID]store.Access{}
	var batches atomic.Int64
	var servers []*httptest.Server
	for _, d := range devs {
		inner := store.NewServer(store.NewMemFS())
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/batch" {
				batches.Add(1)
			}
			inner.ServeHTTP(w, r)
		}))
		servers = append(servers, hs)
		stores[d] = &store.Client{Base: hs.URL, HTTP: hs.Client()}
	}
	return stores, &batches, func() {
		for _, hs := range servers {
			hs.Close()
		}
	}
}

// TestApplyBatchedEquivalenceOverREST: against real wire stores, the
// batched protocol, the per-range protocol (NoBatch) and the retained
// materialized pipeline must all land byte-identical final state — and
// the batch path must actually be the one moving the bytes when it is
// enabled.
func TestApplyBatchedEquivalenceOverREST(t *testing.T) {
	m := model.GPTCustom(2, 16, 2, 64, 8)
	cases := []struct {
		from, to parallel.Config
		nf, nt   int
	}{
		{parallel.Config{TP: 2, PP: 1, DP: 1}, parallel.Config{TP: 4, PP: 1, DP: 1}, 2, 4},
		{parallel.Config{TP: 4, PP: 1, DP: 1}, parallel.Config{TP: 1, PP: 1, DP: 4}, 4, 4},
		{parallel.Config{TP: 2, PP: 1, DP: 2}, parallel.Config{TP: 2, PP: 2, DP: 1}, 4, 4},
	}
	const job = "beqv"
	for ci, c := range cases {
		from := buildPTC(t, m, c.from, alloc(c.nf))
		to := buildPTC(t, m, c.to, alloc(c.nt))
		golden := goldenState(from)
		plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n := c.nf
		if c.nt > n {
			n = c.nt
		}
		var closers []func()
		run := func(p Pipeline, noBatch bool) (map[cluster.DeviceID]store.Access, int64) {
			stores, batches, done := restStores(alloc(n))
			closers = append(closers, done)
			if err := LoadPTC(context.Background(), job, from, stores, golden); err != nil {
				t.Fatal(err)
			}
			tr := &Transformer{Job: job, Stores: stores, Pipeline: p, NoBatch: noBatch, Parallelism: 4}
			if _, err := tr.Apply(context.Background(), plan); err != nil {
				t.Fatalf("case %d pipeline %d noBatch %v: %v", ci, p, noBatch, err)
			}
			return stores, batches.Load()
		}
		bStores, bBatches := run(Streamed, false)
		pStores, pBatches := run(Streamed, true)
		mStores, mBatches := run(Materialized, false)
		if bBatches == 0 {
			t.Fatalf("case %d: batched run issued no /batch requests", ci)
		}
		if pBatches != 0 || mBatches != 0 {
			t.Fatalf("case %d: disabled paths issued /batch requests (per-range %d, materialized %d)",
				ci, pBatches, mBatches)
		}
		for _, d := range to.Devices {
			for _, s := range to.Place[d] {
				want := golden[s.Tensor].Slice(s.Region)
				for which, stores := range map[string]map[cluster.DeviceID]store.Access{
					"batched": bStores, "per-range": pStores, "materialized": mStores} {
					got, err := stores[d].Query(ModelPath(job, d, s.Tensor), nil)
					if err != nil {
						t.Fatalf("case %d: %s dev %d missing %s: %v", ci, which, d, s.Tensor, err)
					}
					if !got.Equal(want) {
						t.Fatalf("case %d: %s dev %d wrong bytes for %s%v", ci, which, d, s.Tensor, s.Region)
					}
				}
			}
		}
		for _, done := range closers {
			done()
		}
	}
}

// TestApplyBatchedChaosPreservesOldState drives the batched staging
// path under the deterministic chaos injector: every armed attempt must
// fail with an injected fault without touching the live model tree, and
// a disarmed retry must complete and commit.
func TestApplyBatchedChaosPreservesOldState(t *testing.T) {
	m := model.GPTCustom(2, 16, 2, 64, 8)
	const job = "bchaos"
	from := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 1}, alloc(2))
	to := buildPTC(t, m, parallel.Config{TP: 4, PP: 1, DP: 1}, alloc(4))
	golden := goldenState(from)
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		in := chaos.NewInjector(chaos.Plan{Seed: seed, StoreFaultRate: 0.1})
		plain := localStores(alloc(4))
		if err := LoadPTC(context.Background(), job, from, plain, golden); err != nil {
			t.Fatal(err)
		}
		stores := map[cluster.DeviceID]store.Access{}
		for d, acc := range plain {
			stores[d] = in.WrapAccess(job, fmt.Sprint(d), batchableLocal{acc})
		}
		tr := &Transformer{Job: job, Stores: stores, Pipeline: Streamed, Parallelism: 4}
		in.BeginAttempt(job, uint64(seed))
		_, err := tr.Apply(context.Background(), plan)
		if err == nil {
			t.Fatalf("seed %d: Apply survived 10%% store fault rate", seed)
		}
		if !errors.Is(err, chaos.Err) {
			t.Fatalf("seed %d: failure %v is not an injected fault", seed, err)
		}
		in.EndAttempt(job)
		// The failed attempt must not have disturbed the live model tree.
		verifyAgainstGolden(t, job, from, plain, golden)
		// Disarmed retry commits.
		if _, err := tr.Apply(context.Background(), plan); err != nil {
			t.Fatalf("seed %d: disarmed retry failed: %v", seed, err)
		}
		verifyAgainstGolden(t, job, to, plain, golden)
	}
}

// TestChaosForwardsBatchOp pins the injector's batch-operation coverage
// deterministically: an armed wrapper injects a fault on BatchQueryInto
// itself (for some seed — at a 90% rate, 20 seeds cannot all pass), and
// a disarmed wrapper forwards the batch untouched.
func TestChaosForwardsBatchOp(t *testing.T) {
	fs := store.NewMemFS()
	src := tensor.New(tensor.Float32, 4, 4)
	src.FillSeq(0, 1)
	if err := fs.PutTensor("/t", src); err != nil {
		t.Fatal(err)
	}
	acc := batchableLocal{store.Local{FS: fs}}
	found := false
	for seed := int64(1); seed <= 20 && !found; seed++ {
		in := chaos.NewInjector(chaos.Plan{Seed: seed, StoreFaultRate: 0.9})
		w := in.WrapAccess("j", "dev0", acc).(store.BatchQuerier)
		in.BeginAttempt("j", 1)
		dst := tensor.New(tensor.Float32, 4, 4)
		_, err := w.BatchQueryInto(context.Background(), []store.BatchEntry{{Path: "/t", Dst: dst}})
		in.EndAttempt("j")
		if err == nil {
			continue
		}
		if !errors.Is(err, chaos.Err) || !strings.Contains(err.Error(), "batch") {
			t.Fatalf("seed %d: batch fault = %v, want injected batch-op fault", seed, err)
		}
		found = true
	}
	if !found {
		t.Fatal("no seed injected a fault on the batch op; chaos does not cover BatchQueryInto")
	}
	// Never-armed wrapper: pass-through with correct bytes.
	in := chaos.NewInjector(chaos.Plan{Seed: 1, StoreFaultRate: 0.9})
	w := in.WrapAccess("j", "dev0", acc).(store.BatchQuerier)
	dst := tensor.New(tensor.Float32, 4, 4)
	if _, err := w.BatchQueryInto(context.Background(), []store.BatchEntry{{Path: "/t", Dst: dst}}); err != nil {
		t.Fatalf("disarmed batch failed: %v", err)
	}
	if !dst.Equal(src) {
		t.Fatal("disarmed batch landed wrong bytes")
	}
}

// batchableLocal gives a Local store a BatchQuerier face by serving each
// entry per-range — enough for the chaos wrapper to forward the batch op
// without standing up wire servers in every seed iteration.
type batchableLocal struct{ store.Access }

func (b batchableLocal) BatchQueryInto(ctx context.Context, entries []store.BatchEntry) (store.BatchStats, error) {
	st := store.BatchStats{Entries: len(entries)}
	for _, e := range entries {
		n, err := b.Access.QueryInto(e.Path, e.Reg, e.Dst, e.At)
		if err != nil {
			return st, err
		}
		st.Bytes += n
		st.Frames++
	}
	return st, nil
}
