package transform

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
)

// wireCount is one endpoint's traffic: requests, request body bytes in,
// response body bytes out.
type wireCount struct{ Reqs, In, Out int64 }

// wireTap counts every request a set of store servers handles, keyed
// by "METHOD /endpoint".
type wireTap struct {
	mu sync.Mutex
	by map[string]wireCount
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

type countingResponse struct {
	http.ResponseWriter
	n int64
}

func (w *countingResponse) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (wt *wireTap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		cw := &countingResponse{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		wt.mu.Lock()
		defer wt.mu.Unlock()
		c := wt.by[r.Method+" "+r.URL.Path]
		c.Reqs++
		c.In += body.n
		c.Out += cw.n
		wt.by[r.Method+" "+r.URL.Path] = c
	})
}

func (wt *wireTap) reset() {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	wt.by = map[string]wireCount{}
}

func (wt *wireTap) snapshot() map[string]wireCount {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	out := make(map[string]wireCount, len(wt.by))
	for k, v := range wt.by {
		out[k] = v
	}
	return out
}

// TestApplyWireShape pins the exact wire traffic of a TP4 -> DP4
// migration onto fresh devices (TP4 on devices 0-3 of OnPrem16's first
// worker, DP4 on devices 4-7 of its second) against counting loopback
// stores: requests and body bytes per endpoint, for the single
// transformer and for the per-worker distributed apply. Every
// destination needs every source's shard, so each source answers one
// /batch after one capability probe, each destination tensor costs one
// staging upload, and the commit lists, deletes and renames once per
// destination and deletes once per departed source.
func TestApplyWireShape(t *testing.T) {
	m := model.GPTCustom(2, 16, 2, 64, 8)
	from := buildPTC(t, m, parallel.Config{TP: 4, PP: 1, DP: 1}, alloc(4))
	to := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 4}, allocFrom(4, 4))
	golden := goldenState(from)
	topo := cluster.OnPrem16()
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	const job = "wire"
	// Recorded against the per-assignment staging code this engine
	// replaced; any change here is a change of wire protocol.
	want := map[string]wireCount{
		"GET /capabilities": {Reqs: 4, Out: 104},
		"POST /batch":       {Reqs: 4, In: 19852, Out: 129360},
		"POST /upload":      {Reqs: 112, In: 126464},
		"GET /list":         {Reqs: 4, Out: 40},
		"DELETE /delete":    {Reqs: 8, Out: 140},
		"POST /rename":      {Reqs: 4},
	}
	wantStats := Stats{Assignments: 112, PeerBytes: 123904, BytesCopied: 247808, AllocBytes: 123904}

	for _, mode := range []string{"single", "distributed"} {
		tap := &wireTap{by: map[string]wireCount{}}
		stores := map[cluster.DeviceID]store.Access{}
		for _, d := range alloc(8) {
			hs := httptest.NewServer(tap.wrap(store.NewServer(store.NewMemFS())))
			defer hs.Close()
			stores[d] = &store.Client{Base: hs.URL, HTTP: hs.Client()}
		}
		if err := LoadPTC(context.Background(), job, from, stores, golden); err != nil {
			t.Fatal(err)
		}
		tap.reset()
		var st Stats
		if mode == "single" {
			st, err = (&Transformer{Job: job, Stores: stores}).Apply(context.Background(), plan)
		} else {
			st, err = ApplyDistributed(job, plan, topo, stores, nil)
		}
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		got := tap.snapshot()
		verifyAgainstGolden(t, job, to, stores, golden)
		if st.Duration = 0; st != wantStats {
			t.Errorf("%s: stats %+v, want %+v", mode, st, wantStats)
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d endpoints hit, want %d: %v", mode, len(got), len(want), got)
		}
		for k, w := range want {
			if got[k] != w {
				t.Errorf("%s: %s = %+v, want %+v", mode, k, got[k], w)
			}
		}
	}
}
