package transform

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

func TestApplyDistributedMatchesSingle(t *testing.T) {
	topo := cluster.OnPrem16()
	m := model.GPTCustom(6, 32, 4, 128, 16)
	const job = "job0"
	from := buildPTC(t, m, parallel.Config{TP: 2, PP: 4, DP: 2}, alloc(16))
	to := buildPTC(t, m, parallel.Config{TP: 2, PP: 2, DP: 2}, alloc(8))
	golden := goldenState(from)

	// Single-transformer reference.
	single := localStores(alloc(16))
	if err := LoadPTC(context.Background(), job, from, single, golden); err != nil {
		t.Fatal(err)
	}
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	stS, err := (&Transformer{Job: job, Stores: single}).Apply(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstGolden(t, job, to, single, golden)

	// Distributed execution: one transformer per worker.
	dist := localStores(alloc(16))
	if err := LoadPTC(context.Background(), job, from, dist, golden); err != nil {
		t.Fatal(err)
	}
	stD, err := ApplyDistributed(job, plan, topo, dist, nil)
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstGolden(t, job, to, dist, golden)

	// Same work was done.
	if stS.Assignments != stD.Assignments || stS.PeerBytes != stD.PeerBytes ||
		stS.LocalBytes != stD.LocalBytes {
		t.Fatalf("distributed stats differ: single %+v vs distributed %+v", stS, stD)
	}
	// Departed devices cleared in both.
	for _, d := range []cluster.DeviceID{8, 12} {
		if _, err := dist[d].List("/job/job0/model"); err == nil {
			t.Fatalf("device %d still holds state after distributed apply", d)
		}
	}
}

func TestApplyDistributedFailureRecovery(t *testing.T) {
	topo := cluster.OnPrem16()
	m := model.GPTCustom(2, 16, 2, 64, 8)
	const job = "job0"
	from := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 1}, alloc(2))
	golden := goldenState(from)
	stores := localStores(alloc(4))
	if err := LoadPTC(context.Background(), job, from, stores, golden); err != nil {
		t.Fatal(err)
	}
	degraded := from.WithoutDevices(1)
	to := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 1}, alloc(1))
	plan, err := core.GeneratePlan(degraded, to, core.PlanOptions{StorageFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	// Without storage: error propagates from the owning worker.
	if _, err := ApplyDistributed(job, plan, topo, stores, nil); err == nil {
		t.Fatal("distributed apply without storage succeeded")
	}
	st, err := ApplyDistributed(job, plan, topo, stores, memStorage(golden))
	if err != nil {
		t.Fatal(err)
	}
	if st.StorageBytes == 0 {
		t.Fatal("no storage reads recorded")
	}
	verifyAgainstGolden(t, job, to, stores, golden)
}

// parkingAccess parks every context-aware fetch until its context
// dies, closing parked when the first one arrives.
type parkingAccess struct {
	store.Access
	once   sync.Once
	parked chan struct{}
}

func (p *parkingAccess) QueryIntoContext(ctx context.Context, path string, reg tensor.Region,
	dst *tensor.Tensor, at tensor.Region) (int64, error) {
	p.once.Do(func() { close(p.parked) })
	<-ctx.Done()
	return 0, ctx.Err()
}

// failingAccess fails every read as soon as gate closes.
type failingAccess struct {
	store.Access
	gate <-chan struct{}
}

func (f failingAccess) Query(path string, reg tensor.Region) (*tensor.Tensor, error) {
	<-f.gate
	return nil, fmt.Errorf("injected fault reading %s", path)
}

func (f failingAccess) QueryInto(path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error) {
	<-f.gate
	return 0, fmt.Errorf("injected fault reading %s", path)
}

// TestApplyDistributedFirstErrorCancelsWorkers: the workers of a
// distributed apply share one fate. Worker 1's only source parks inside
// a context-aware fetch, then worker 0's destination store fails every
// read; the apply must return the error promptly (the failure cancels
// the parked sibling) and leave no staging behind on any destination.
func TestApplyDistributedFirstErrorCancelsWorkers(t *testing.T) {
	topo := cluster.OnPrem16()
	m := model.GPTCustom(2, 16, 2, 64, 8)
	const job = "job0"
	// A full replica on device 0 (worker 0) and one on device 4
	// (worker 1); the new placement keeps device 0 and moves the other
	// replica to device 5, which fetches from its worker-local device 4.
	from := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 2}, cluster.Allocation{0, 4})
	to := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 2}, cluster.Allocation{0, 5})
	golden := goldenState(from)
	plain := localStores(alloc(8))
	if err := LoadPTC(context.Background(), job, from, plain, golden); err != nil {
		t.Fatal(err)
	}
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range plan.Assignments {
		for _, f := range a.Fetch {
			if a.Device == 5 && f.Src.Device != 4 {
				t.Fatalf("fixture assumption broken: device 5 fetches from device %d", f.Src.Device)
			}
		}
	}
	stores := map[cluster.DeviceID]store.Access{}
	for d, acc := range plain {
		stores[d] = acc
	}
	parked := &parkingAccess{Access: plain[4], parked: make(chan struct{})}
	stores[4] = parked
	stores[0] = failingAccess{Access: plain[0], gate: parked.parked}

	done := make(chan error, 1)
	go func() {
		_, err := ApplyDistributed(job, plan, topo, stores, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("distributed apply succeeded with a failing destination store")
		}
		if !strings.Contains(err.Error(), "injected fault") {
			t.Fatalf("apply failed with %v, want the injected fault", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("distributed apply did not return: the first error did not cancel the parked sibling worker")
	}
	for _, d := range to.Devices {
		if _, err := plain[d].List(stagingRoot(job)); err == nil {
			t.Fatalf("device %d still holds a staging tree after the failed apply", d)
		}
	}
	verifyAgainstGolden(t, job, from, plain, golden)
}
