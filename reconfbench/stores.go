package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"

	"tenplex/internal/cluster"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

// storeNode is one Tensor Store daemon served in-process on a loopback
// TCP listener: the same store.Server handler tenplex-store runs,
// reached by the same store.Client over real HTTP.
type storeNode struct {
	fs     *store.MemFS
	srv    *store.Server
	http   *http.Server
	served chan struct{}
	client *store.Client
}

// storeCluster is one store daemon per device, 0..n-1.
type storeCluster struct {
	nodes []*storeNode
	// access is what the program is handed: the bare clients in the
	// untraced run, timing wrappers around them in the traced run.
	access map[cluster.DeviceID]store.Access
}

// startStores boots n store daemons. With a recorder every server
// request and client call is traced; wrap, when non-nil, wraps each
// daemon's handler once more.
func startStores(n int, rec *recorder, wrap func(http.Handler) http.Handler) (*storeCluster, error) {
	c := &storeCluster{access: map[cluster.DeviceID]store.Access{}}
	for d := 0; d < n; d++ {
		fs := store.NewMemFS()
		srv := store.NewServer(fs)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, fmt.Errorf("store %d: listen: %w", d, err)
		}
		var h http.Handler = srv
		if rec != nil {
			h = &serverTap{next: srv, rec: rec}
		}
		if wrap != nil {
			h = wrap(h)
		}
		node := &storeNode{fs: fs, srv: srv, http: &http.Server{Handler: h}, served: make(chan struct{}),
			client: &store.Client{Base: "http://" + ln.Addr().String()}}
		go func() {
			defer close(node.served)
			_ = node.http.Serve(ln) // returns http.ErrServerClosed on close
		}()
		c.nodes = append(c.nodes, node)
		var acc store.Access = node.client
		if rec != nil {
			acc = &timedStore{c: node.client, rec: rec}
		}
		c.access[cluster.DeviceID(d)] = acc
	}
	return c, nil
}

// close stops every daemon and waits for its serve loop to return.
func (c *storeCluster) close() {
	for _, n := range c.nodes {
		_ = n.http.Close()
		<-n.served
	}
	c.nodes = nil
}

// wipe removes everything under root on every store.
func (c *storeCluster) wipe(root string) error {
	for d, n := range c.nodes {
		if !exists(n.fs, root) {
			continue
		}
		if err := n.fs.Delete(root); err != nil {
			return fmt.Errorf("store %d: wipe %s: %w", d, root, err)
		}
	}
	return nil
}

// exists reports whether path is a file or a directory of fs.
func exists(fs *store.MemFS, path string) bool {
	if _, err := fs.List(path); err == nil {
		return true
	}
	_, err := fs.Stat(path)
	return err == nil
}

// totalBytes sums the tensor bytes held by every store.
func (c *storeCluster) totalBytes() int64 {
	var n int64
	for _, node := range c.nodes {
		n += node.fs.TotalBytes()
	}
	return n
}

// wire is a snapshot of the servers' payload counters and the clients'
// retry counters.
type wire struct{ bytesIn, bytesOut, retries int64 }

func (c *storeCluster) wire() wire {
	var w wire
	for _, n := range c.nodes {
		w.bytesIn += n.srv.BytesReceived()
		w.bytesOut += n.srv.BytesServed()
		w.retries += n.client.Stats.Retries.Load()
	}
	return w
}

func (w wire) sub(o wire) wire {
	return wire{w.bytesIn - o.bytesIn, w.bytesOut - o.bytesOut, w.retries - o.retries}
}

// serverTap times every request the store handler serves.
type serverTap struct {
	next http.Handler
	rec  *recorder
}

func (t *serverTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	_, start := t.rec.begin()
	t.next.ServeHTTP(w, r)
	t.rec.leaf(srvPrefix+strings.TrimPrefix(r.URL.Path, "/"), start)
}

// timedStore wraps a *store.Client and records one span per call,
// named by the reconfiguration phase it serves. It is transparent: it
// has exactly the optional methods *store.Client has that the
// transformer probes for (BatchQuerier and the context-taking
// variants), so the program takes the same code paths wrapped or bare.
// It deliberately lacks UploadsByReference (store.RefUploader), which
// *store.Client does not have either; store.Observe is not reused
// because it hides the context-taking methods.
type timedStore struct {
	c   *store.Client
	rec *recorder
}

var (
	_ store.Access       = (*timedStore)(nil)
	_ store.BatchQuerier = (*timedStore)(nil)
)

// timed runs one client call and records its span; fn returns the
// bytes the call moved: fetched payload, or upload request body
// (payload plus tensor header).
func (s *timedStore) timed(name string, fn func() (int64, error)) error {
	_, start := s.rec.begin()
	n, err := fn()
	s.rec.leafBytes(name, start, n)
	return err
}

func (s *timedStore) Query(path string, reg tensor.Region) (t *tensor.Tensor, err error) {
	err = s.timed(spanFetch, func() (int64, error) {
		t, err = s.c.Query(path, reg)
		if err != nil {
			return 0, err
		}
		return int64(t.NumBytes()), nil
	})
	return t, err
}

func (s *timedStore) QueryInto(path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (n int64, err error) {
	err = s.timed(spanFetch, func() (int64, error) { n, err = s.c.QueryInto(path, reg, dst, at); return n, err })
	return n, err
}

func (s *timedStore) QueryIntoContext(ctx context.Context, path string, reg tensor.Region,
	dst *tensor.Tensor, at tensor.Region) (n int64, err error) {
	err = s.timed(spanFetch, func() (int64, error) { n, err = s.c.QueryIntoContext(ctx, path, reg, dst, at); return n, err })
	return n, err
}

func (s *timedStore) BatchQueryInto(ctx context.Context, entries []store.BatchEntry) (st store.BatchStats, err error) {
	err = s.timed(spanFetch, func() (int64, error) { st, err = s.c.BatchQueryInto(ctx, entries); return st.Bytes, err })
	return st, err
}

func (s *timedStore) Upload(path string, t *tensor.Tensor) error {
	return s.timed(spanStage, func() (int64, error) { return uploadBody(t.DType(), t.Shape()), s.c.Upload(path, t) })
}

func (s *timedStore) UploadContext(ctx context.Context, path string, t *tensor.Tensor) error {
	return s.timed(spanStage, func() (int64, error) { return uploadBody(t.DType(), t.Shape()), s.c.UploadContext(ctx, path, t) })
}

func (s *timedStore) UploadFrom(path string, dt tensor.DType, shape []int, r io.Reader) error {
	return s.timed(spanStage, func() (int64, error) {
		return uploadBody(dt, shape), s.c.UploadFrom(path, dt, shape, r)
	})
}

func (s *timedStore) UploadFromContext(ctx context.Context, path string, dt tensor.DType, shape []int, r io.Reader) error {
	return s.timed(spanStage, func() (int64, error) {
		return uploadBody(dt, shape), s.c.UploadFromContext(ctx, path, dt, shape, r)
	})
}

func (s *timedStore) Delete(path string) error {
	return s.timed(spanCommit, func() (int64, error) { return 0, s.c.Delete(path) })
}

func (s *timedStore) DeleteContext(ctx context.Context, path string) error {
	return s.timed(spanCommit, func() (int64, error) { return 0, s.c.DeleteContext(ctx, path) })
}

func (s *timedStore) List(path string) (names []string, err error) {
	err = s.timed(spanCommit, func() (int64, error) { names, err = s.c.List(path); return 0, err })
	return names, err
}

func (s *timedStore) ListContext(ctx context.Context, path string) (names []string, err error) {
	err = s.timed(spanCommit, func() (int64, error) { names, err = s.c.ListContext(ctx, path); return 0, err })
	return names, err
}

func (s *timedStore) Rename(src, dst string) error {
	return s.timed(spanCommit, func() (int64, error) { return 0, s.c.Rename(src, dst) })
}

func (s *timedStore) RenameContext(ctx context.Context, src, dst string) error {
	return s.timed(spanCommit, func() (int64, error) { return 0, s.c.RenameContext(ctx, src, dst) })
}

// uploadBody is the size of an upload request body: the tensor wire
// header followed by the payload.
func uploadBody(dt tensor.DType, shape []int) int64 {
	return int64(tensor.HeaderSize(len(shape))) + tensor.ShapeNumBytes(dt, shape)
}
