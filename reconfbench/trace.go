package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced call at a layer boundary. Op numbers the
// operation (reconfiguration) the call belongs to; every span of one
// operation shares it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: every method returns at once.
//
// The workloads are closed loops with one operation in flight, so the
// operation and the parent span that store calls and server requests
// nest under are tracked as run-wide "current" values rather than
// threaded through the program, which the benchmark does not modify.
type recorder struct {
	epoch  time.Time
	next   atomic.Uint64
	op     atomic.Int64
	parent atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// setOp starts attributing spans to operation op.
func (r *recorder) setOp(op int64) {
	if r != nil {
		r.op.Store(op)
	}
}

// setParent makes id the parent of the store calls and server requests
// that follow.
func (r *recorder) setParent(id uint64) {
	if r != nil {
		r.parent.Store(id)
	}
}

// begin allocates a span ID and stamps its start.
func (r *recorder) begin() (uint64, int64) {
	if r == nil {
		return 0, 0
	}
	return r.next.Add(1), r.now()
}

// end records a span that began at start.
func (r *recorder) end(id, parent uint64, name string, start int64) {
	r.endAt(id, parent, name, start, r.now())
}

// endAt records a span with an explicit end.
func (r *recorder) endAt(id, parent uint64, name string, start, end int64) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Op: r.op.Load(), Name: name, Start: start, End: end}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// leaf records a call nested under the current parent span.
func (r *recorder) leaf(name string, start int64) { r.leafBytes(name, start, 0) }

// leafBytes is leaf for a call that moved n payload bytes.
func (r *recorder) leafBytes(name string, start, n int64) {
	if r == nil {
		return
	}
	s := span{ID: r.next.Add(1), Parent: r.parent.Load(), Op: r.op.Load(), Name: name,
		Start: start, End: r.now(), Bytes: n}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// byOp groups the recorded spans by operation.
func (r *recorder) byOp() map[int64][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[int64][]span{}
	for _, s := range r.spans {
		out[s.Op] = append(out[s.Op], s)
	}
	return out
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names. Client-side store calls are grouped by the phase of the
// reconfiguration they serve; server requests are "srv.<endpoint>".
const (
	spanReconfig = "reconfig"
	spanPlan     = "core.plan"
	spanApply    = "transform.apply"
	spanFetch    = "store.fetch"
	spanStage    = "store.stage"
	spanCommit   = "store.commit"
	spanScale    = "api.scale"
	srvPrefix    = "srv."
)

// opBreakdown is one operation's blocking path. Inside the window
// (the apply span, or the whole operation when the program applies
// internally), an instant with several kinds of store call in flight is
// attributed to the first of commit, fetch and stage; self is the
// window minus the union of every store call. plan+fetch+stage+commit+
// self therefore covers plan+window exactly, and the reconciliation
// checks how much of the operation falls outside both.
type opBreakdown struct {
	total, plan, window, fetch, stage, commit, self int64
	calls                                           map[string]int   // client calls per phase
	bytes                                           map[string]int64 // client payload bytes per phase
	clientNs                                        int64            // summed client call time
	srvReq                                          map[string]int   // server requests per endpoint
	srvNs                                           map[string]int64 // handler time per endpoint
}

func breakdown(spans []span) (opBreakdown, error) {
	b := opBreakdown{calls: map[string]int{}, bytes: map[string]int64{}, srvReq: map[string]int{}, srvNs: map[string]int64{}}
	var root, win *span
	for i := range spans {
		if spans[i].Name == spanReconfig {
			root = &spans[i]
		}
	}
	if root == nil {
		return b, fmt.Errorf("operation has no %s span", spanReconfig)
	}
	// Only calls that start inside the operation belong to it; the
	// service's background work before and after is not part of it.
	var fetch, stage, commit []interval
	for i := range spans {
		s := &spans[i]
		if s == root || s.Start < root.Start || s.Start > root.End {
			continue
		}
		switch {
		case s.Name == spanPlan:
			b.plan += s.dur()
		case s.Name == spanApply:
			win = s
		case s.Name == spanFetch:
			fetch = append(fetch, interval{s.Start, s.End})
		case s.Name == spanStage:
			stage = append(stage, interval{s.Start, s.End})
		case s.Name == spanCommit:
			commit = append(commit, interval{s.Start, s.End})
		case strings.HasPrefix(s.Name, srvPrefix):
			ep := strings.TrimPrefix(s.Name, srvPrefix)
			b.srvReq[ep]++
			b.srvNs[ep] += s.dur()
		}
		if s.Name == spanFetch || s.Name == spanStage || s.Name == spanCommit {
			b.calls[s.Name]++
			b.bytes[s.Name] += s.Bytes
			b.clientNs += s.dur()
		}
	}
	if win == nil {
		win = root
	}
	b.total = root.dur()
	b.window = win.dur()
	lo, hi := win.Start, win.End
	c := unionLen(commit, lo, hi)
	cf := unionLen(append(append([]interval(nil), commit...), fetch...), lo, hi)
	all := append(append(append([]interval(nil), commit...), fetch...), stage...)
	cfs := unionLen(all, lo, hi)
	b.commit, b.fetch, b.stage = c, cf-c, cfs-cf
	b.self = b.window - cfs
	return b, nil
}
