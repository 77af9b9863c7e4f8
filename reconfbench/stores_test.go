package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/transform"
)

// TestTimedStoreHasClientInterfaces pins the wrapper's transparency:
// it has each optional interface the transformer probes for exactly
// when *store.Client has it, so wrapping never changes the code path.
func TestTimedStoreHasClientInterfaces(t *testing.T) {
	type (
		ctxQuerier interface {
			QueryIntoContext(context.Context, string, tensor.Region, *tensor.Tensor, tensor.Region) (int64, error)
		}
		ctxUploader interface {
			UploadContext(context.Context, string, *tensor.Tensor) error
		}
		ctxUploadFromer interface {
			UploadFromContext(context.Context, string, tensor.DType, []int, io.Reader) error
		}
		ctxDeleter interface {
			DeleteContext(context.Context, string) error
		}
		ctxLister interface {
			ListContext(context.Context, string) ([]string, error)
		}
		ctxRenamer interface {
			RenameContext(context.Context, string, string) error
		}
	)
	bare, wrapped := any(&store.Client{}), any(&timedStore{})
	for name, has := range map[string]func(any) bool{
		"BatchQuerier":      func(v any) bool { _, ok := v.(store.BatchQuerier); return ok },
		"RefUploader":       func(v any) bool { _, ok := v.(store.RefUploader); return ok },
		"QueryIntoContext":  func(v any) bool { _, ok := v.(ctxQuerier); return ok },
		"UploadContext":     func(v any) bool { _, ok := v.(ctxUploader); return ok },
		"UploadFromContext": func(v any) bool { _, ok := v.(ctxUploadFromer); return ok },
		"DeleteContext":     func(v any) bool { _, ok := v.(ctxDeleter); return ok },
		"ListContext":       func(v any) bool { _, ok := v.(ctxLister); return ok },
		"RenameContext":     func(v any) bool { _, ok := v.(ctxRenamer); return ok },
	} {
		if has(bare) != has(wrapped) {
			t.Errorf("%s: *store.Client has it %v, timedStore has it %v", name, has(bare), has(wrapped))
		}
	}
}

// requestCounter counts the requests each store daemon serves, per
// endpoint.
type requestCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *requestCounter) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(w, r)
		c.mu.Lock()
		if c.n == nil {
			c.n = map[string]int{}
		}
		c.n[strings.TrimPrefix(r.URL.Path, "/")]++
		c.mu.Unlock()
	})
}

// reconfigureCounted runs one warmed-up tp4-dp4-migrate
// reconfiguration, wrapped when rec is non-nil, and returns its Stats,
// per-endpoint requests and wire bytes.
func reconfigureCounted(t *testing.T, rec *recorder) (transform.Stats, map[string]int, wire) {
	t.Helper()
	c := &requestCounter{}
	rig, err := newDatapathRig(tp4dp4Migrate(), 1, rec, c.wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	if _, err := rig.reconfigure(rec, -1); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.n = map[string]int{}
	c.mu.Unlock()
	w0 := rig.stores.wire()
	op, err := rig.reconfigure(rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	op.stats.Duration = 0
	return op.stats, c.n, rig.stores.wire().sub(w0)
}

// TestTimedStoreIsTransparent runs the same reconfiguration bare and
// wrapped: the transformer's Stats and the daemons' per-endpoint
// request and byte counts must be identical.
func TestTimedStoreIsTransparent(t *testing.T) {
	bareStats, bareReq, bareWire := reconfigureCounted(t, nil)
	rec := newRecorder()
	tracedStats, tracedReq, tracedWire := reconfigureCounted(t, rec)
	if bareStats != tracedStats {
		t.Errorf("Stats differ: bare %+v, wrapped %+v", bareStats, tracedStats)
	}
	if len(bareReq) != len(tracedReq) {
		t.Errorf("endpoints differ: bare %v, wrapped %v", bareReq, tracedReq)
	}
	for ep, n := range bareReq {
		if tracedReq[ep] != n {
			t.Errorf("%s requests: bare %d, wrapped %d", ep, n, tracedReq[ep])
		}
	}
	if bareWire != tracedWire {
		t.Errorf("wire bytes differ: bare %+v, wrapped %+v", bareWire, tracedWire)
	}
	if bareReq["upload"] == 0 || bareReq["batch"] == 0 {
		t.Errorf("reconfiguration made no uploads or batches: %v", bareReq)
	}
	if len(rec.spans) == 0 {
		t.Error("wrapped run recorded no spans")
	}
}

func TestUnionLen(t *testing.T) {
	iv := []interval{{0, 10}, {5, 15}, {20, 30}, {25, 26}}
	if got := unionLen(iv, 0, 100); got != 25 {
		t.Errorf("union = %d, want 25", got)
	}
	if got := unionLen(iv, 8, 22); got != 9 {
		t.Errorf("clipped union = %d, want 9", got)
	}
	if got := unionLen(nil, 0, 10); got != 0 {
		t.Errorf("empty union = %d, want 0", got)
	}
}
