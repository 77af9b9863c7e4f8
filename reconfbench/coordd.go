package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tenplex/internal/api"
	"tenplex/internal/cluster"
	"tenplex/internal/coordinator"
	"tenplex/internal/obs"
	"tenplex/internal/store"
	"tenplex/internal/transform"
)

const (
	coorddDevices = 8
	coorddTenant  = "bench"
	coorddToken   = "bench-token"
	// coorddWait bounds every wait for the service to reach a state.
	coorddWait = 10 * time.Second
)

// coorddModel is the tp4-dp4-migrate model, submitted through the API.
var coorddModel = api.ModelSpec{Kind: "gpt", Layers: 12, Hidden: 48, Heads: 4, Vocab: 192, SeqLen: 32}

// storeWatch sees every request the store daemons serve: it marks
// when the stores last saw traffic, so the harness can wait for the
// service's background work to settle, and it counts the renames that
// commit a job's staged tree, so the end of a reconfiguration is
// observed from outside the coordinator without polling.
type storeWatch struct {
	last atomic.Int64 // UnixNano at the end of the latest request

	mu      sync.Mutex
	staging string // staging root whose commit renames are counted
	left    int    // renames still expected
	done    chan time.Time
}

// wrap returns a daemon handler that reports to w.
func (w *storeWatch) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(rw, r)
		now := time.Now()
		w.last.Store(now.UnixNano())
		if r.URL.Path != "/rename" {
			return
		}
		src := r.URL.Query().Get("src")
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.staging == "" || src != w.staging {
			return
		}
		if w.left--; w.left == 0 {
			w.done <- now
			w.staging = ""
		}
	})
}

// expect arms the watch for n commit renames of a staging root.
func (w *storeWatch) expect(staging string, n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case <-w.done: // a stale signal from an abandoned wait
	default:
	}
	w.staging, w.left = staging, n
}

// quietGap is how long the stores must see no request before the
// service's background work (deploy, checkpoint) counts as settled.
const quietGap = 20 * time.Millisecond

// waitQuiet returns once no store request has ended for quietGap.
func (w *storeWatch) waitQuiet() error {
	deadline := time.Now().Add(coorddWait)
	for time.Since(time.Unix(0, w.last.Load())) < quietGap {
		if time.Now().After(deadline) {
			return fmt.Errorf("stores never went quiet")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// coorddRig is one set-up instance: store daemons, the coordinator
// service whose device stores are those daemons, and the REST API.
type coorddRig struct {
	stores   *storeCluster
	watch    *storeWatch
	svc      *coordinator.Service
	closeAPI func() error
	base     string
	http     *http.Client
}

func newCoorddRig(rec *recorder) (*coorddRig, error) {
	r := &coorddRig{watch: &storeWatch{done: make(chan time.Time, 1)}}
	var err error
	if r.stores, err = startStores(coorddDevices, rec, r.watch.wrap); err != nil {
		return nil, err
	}
	r.svc, err = coordinator.StartService(cluster.Cloud(coorddDevices), coordinator.Options{
		Placement: true,
		Metrics:   obs.NewRegistry(),
		Stores: func(job string, dev cluster.DeviceID) store.Access {
			return r.stores.access[dev]
		},
	})
	if err != nil {
		r.stores.close()
		return nil, err
	}
	srv, err := api.NewServer(api.Config{Service: r.svc,
		Tenants: []api.Tenant{{Name: coorddTenant, Token: coorddToken}}})
	if err != nil {
		r.svc.Stop()
		r.stores.close()
		return nil, err
	}
	addr, closeAPI, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		r.svc.Stop()
		r.stores.close()
		return nil, err
	}
	r.closeAPI, r.base = closeAPI, "http://"+addr
	r.http = &http.Client{Transport: &http.Transport{}}
	return r, nil
}

// close stops the API, the service and the daemons; it returns the
// error the service stopped with.
func (r *coorddRig) close() error {
	_ = r.closeAPI()
	_, err := r.svc.Stop()
	r.http.CloseIdleConnections()
	r.stores.close()
	return err
}

// call sends one API request and decodes a 2xx JSON response into out.
func (r *coorddRig) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, r.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+coorddToken)
	resp, err := r.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// waitRunning polls the job until the service reports it running.
func (r *coorddRig) waitRunning(id string) error {
	deadline := time.Now().Add(coorddWait)
	for {
		var st coordinator.JobStatus
		if err := r.call("GET", "/v1/jobs/"+id, nil, &st); err != nil {
			return err
		}
		if st.State == "running" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s stuck %s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// coorddIter is what one submit → scale → cancel iteration measured.
type coorddIter struct {
	op                              int64
	reconfig, submit, scale, cancel time.Duration
	verifyMs                        float64
}

// jobFile is one committed tensor file of a job.
type jobFile struct {
	dev    int
	tensor string
	data   []byte
}

// jobFiles lists every committed tensor file of a job, on every store.
func (r *coorddRig) jobFiles(id string) ([]jobFile, error) {
	var out []jobFile
	for d, node := range r.stores.nodes {
		prefix := fmt.Sprintf("%s/dev%d/", transform.ModelRoot(id), d)
		if !exists(node.fs, prefix) {
			continue // this device holds none of the job's state
		}
		err := node.fs.Walk(prefix, func(path string, _ store.Stat) error {
			t, err := node.fs.GetTensor(path)
			if err != nil {
				return err
			}
			out = append(out, jobFile{dev: d, tensor: strings.TrimPrefix(path, prefix), data: t.Data()})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// deployed reports whether any store holds the job's committed tree.
func (r *coorddRig) deployed(id string) bool {
	for _, node := range r.stores.nodes {
		if names, err := node.fs.List(transform.ModelRoot(id)); err == nil && len(names) > 0 {
			return true
		}
	}
	return false
}

// checkScaled requires the committed tree on every device, no staging
// tree left, and every tensor file equal to a pre-scale copy of the
// same tensor wherever the shard size did not change.
func (r *coorddRig) checkScaled(id string, before []jobFile) error {
	after, err := r.jobFiles(id)
	if err != nil {
		return err
	}
	old := map[string][][]byte{}
	for _, f := range before {
		old[f.tensor] = append(old[f.tensor], f.data)
	}
	holders := map[int]bool{}
	compared := 0
	for _, f := range after {
		holders[f.dev] = true
		for _, o := range old[f.tensor] {
			if len(o) != len(f.data) {
				continue
			}
			if !bytes.Equal(o, f.data) {
				return fmt.Errorf("tensor %s on device %d changed across the scale-out", f.tensor, f.dev)
			}
			compared++
			break
		}
	}
	if len(holders) != coorddDevices {
		return fmt.Errorf("committed state on %d devices, want %d", len(holders), coorddDevices)
	}
	if compared == 0 {
		return fmt.Errorf("no tensor comparable across the scale-out")
	}
	for d, node := range r.stores.nodes {
		if exists(node.fs, transform.StagingRoot(id)) {
			return fmt.Errorf("device %d kept a staging tree", d)
		}
	}
	return nil
}

// iterate submits a job pinned at 4 GPUs, waits until it runs and its
// deployment settles, scales it to 8 GPUs and times the scale until
// the commit renames land on the stores, checks the scaled state,
// cancels the job and cleans its state off the stores.
func (r *coorddRig) iterate(rec *recorder, name string, op int64) (coorddIter, error) {
	it := coorddIter{op: op}
	rec.setOp(op)
	defer rec.setOp(-1)
	t := time.Now()
	var sub api.SubmitResponse
	if err := r.call("POST", "/v1/jobs", api.SubmitRequest{Name: name, Model: coorddModel,
		GPUs: 4, MinGPUs: 4, MaxGPUs: 4, DurationMin: 1e6}, &sub); err != nil {
		return it, err
	}
	it.submit = time.Since(t)
	id := sub.ID
	if err := r.waitRunning(id); err != nil {
		return it, err
	}
	// Deployment (load and baseline checkpoint) runs after the job
	// reports running; it has settled once the state is on the stores
	// and they have gone quiet.
	deadline := time.Now().Add(coorddWait)
	for !r.deployed(id) {
		if time.Now().After(deadline) {
			return it, fmt.Errorf("job %s: never deployed", id)
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.watch.waitQuiet(); err != nil {
		return it, err
	}
	before, err := r.jobFiles(id)
	if err != nil || len(before) == 0 {
		return it, fmt.Errorf("job %s: no deployed state (%v)", id, err)
	}

	r.watch.expect(transform.StagingRoot(id), coorddDevices)
	rootID, rootStart := rec.begin()
	rec.setParent(rootID)
	scaleID, scaleStart := rec.begin()
	t0 := time.Now()
	err = r.call("POST", "/v1/jobs/"+id+"/scale", api.ScaleRequest{GPUs: coorddDevices}, nil)
	it.scale = time.Since(t0)
	rec.end(scaleID, rootID, spanScale, scaleStart)
	if err != nil {
		return it, err
	}
	select {
	case at := <-r.watch.done:
		it.reconfig = at.Sub(t0)
	case <-time.After(coorddWait):
		return it, fmt.Errorf("job %s: scale-out never committed", id)
	}
	rec.endAt(rootID, 0, spanReconfig, rootStart, rootStart+int64(it.reconfig))

	if err := r.watch.waitQuiet(); err != nil {
		return it, err
	}
	v0 := time.Now()
	err = r.checkScaled(id, before)
	it.verifyMs = float64(time.Since(v0)) / 1e6
	if err != nil {
		return it, err
	}

	t1 := time.Now()
	var st coordinator.JobStatus
	if err := r.call("POST", "/v1/jobs/"+id+"/cancel", nil, &st); err != nil {
		return it, err
	}
	it.cancel = time.Since(t1)
	if st.State != "canceled" {
		return it, fmt.Errorf("job %s is %s after cancel", id, st.State)
	}
	if err := r.watch.waitQuiet(); err != nil {
		return it, err
	}
	// The service leaves a canceled job's tree on the stores; the
	// operator removes it, and every store must end empty.
	if err := r.stores.wipe("/job/" + id); err != nil {
		return it, err
	}
	if n := r.stores.totalBytes(); n != 0 {
		return it, fmt.Errorf("job %s: %d bytes left on the stores after cleanup", id, n)
	}
	return it, nil
}

// coorddServiceIters is how many iterations one service instance
// serves before the harness restarts it, untimed. The service keeps
// every finished job's runtime (initial tensors, checkpoints) in
// memory, about 6 MB per job of this model, so an unbounded run would
// grow its heap, and its GC cost, with its length.
const coorddServiceIters = 50

// coorddCounters are the service registry counters read per iteration.
var coorddCounters = []string{"coord.plans", "coord.preemptions", "transform.noops",
	"transform.local_bytes", "transform.peer_bytes", "transform.storage_bytes",
	"transform.alloc_bytes", "transform.bytes_copied"}

// runCoordd measures the service path: a closed loop of iterations,
// one in flight, through the REST API.
func runCoordd(cfg runConfig) (*result, error) {
	res := &result{layers: map[string]float64{}}
	var (
		rig    *coorddRig
		m0     []obs.MetricRow
		served int
		// counters sums the service counters over every service
		// lifetime of the measured loop.
		counters = map[string]int64{}
	)
	// boot starts a service with its daemons and warms it up with one
	// untimed iteration.
	boot := func(name string) error {
		var err error
		if rig, err = newCoorddRig(cfg.rec); err != nil {
			return err
		}
		if _, err := rig.iterate(cfg.rec, name, -1); err != nil {
			res.attempted++
			res.fail("warm-up: %v", err)
		}
		m0, served = rig.svc.Metrics().Snapshot(), 0
		return nil
	}
	// retire stops the service and folds its counters into the run's.
	retire := func() {
		m1 := rig.svc.Metrics().Snapshot()
		for _, name := range coorddCounters {
			a, _ := obs.Get(m0, name)
			b, _ := obs.Get(m1, name)
			counters[name] += b.Int - a.Int
		}
		if err := rig.close(); err != nil {
			res.fail("service stop: %v", err)
		}
		rig = nil
	}
	defer func() {
		if rig != nil {
			rig.close()
		}
	}()
	for i := 0; i < setupReps && res.failed == 0; i++ { // a failed set-up is not repeated
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		if err := boot(fmt.Sprintf("warmup%d", i)); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}

	var iters []coorddIter
	var scaleMs []float64
	heap := startHeapSampler()
	gc0 := readGC()
	start := time.Now()
	for op := int64(0); cfg.more(start, len(res.opMs)); op++ {
		if rig == nil || served == coorddServiceIters {
			// Untimed restart: after a failed iteration the service's
			// state is unknown; otherwise see coorddServiceIters.
			if rig != nil {
				retire()
			}
			if err := boot(fmt.Sprintf("warmup-%d", op)); err != nil {
				return nil, err
			}
		}
		it, err := rig.iterate(cfg.rec, fmt.Sprintf("s%d-%d", cfg.seed, op), op)
		served++
		res.attempted++
		if err != nil {
			res.fail("op %d: %v", op, err)
			res.opMs = append(res.opMs, missMs)
			scaleMs = append(scaleMs, missMs)
			retire()
			continue
		}
		res.opMs = append(res.opMs, ms(it.reconfig))
		scaleMs = append(scaleMs, ms(it.scale))
		iters = append(iters, it)
	}
	gc1 := readGC()
	res.peakHeapMB = heap.finish()
	if rig != nil {
		retire()
	}
	res.report = []metric{
		{"reconfig_p50_ms", percentile(res.opMs, 0.5), "ms"},
		{"reconfig_p90_ms", percentile(res.opMs, 0.9), "ms"},
		{"api_p50_ms", percentile(scaleMs, 0.5), "ms"},
		{"api_p90_ms", percentile(scaleMs, 0.9), "ms"},
		{"iterations", float64(len(res.opMs)), "count"},
	}
	if len(iters) == 0 {
		return res, nil
	}
	n := float64(len(iters))
	L := res.layers
	delta := func(name string) float64 { return float64(counters[name]) / n }
	L["coordinator.plans"] = delta("coord.plans")
	L["coordinator.preemptions"] = delta("coord.preemptions")
	L["transform.noops"] = delta("transform.noops")
	L["transform.local_mb"] = delta("transform.local_bytes") / 1e6
	L["transform.peer_mb"] = delta("transform.peer_bytes") / 1e6
	L["transform.storage_mb"] = delta("transform.storage_bytes") / 1e6
	L["transform.alloc_mb"] = delta("transform.alloc_bytes") / 1e6
	if moved := delta("transform.local_bytes") + delta("transform.peer_bytes") + delta("transform.storage_bytes"); moved > 0 {
		L["transform.copy_amp"] = delta("transform.bytes_copied") / moved
	}
	L["go.gc_cycles"] = float64(gc1.cycles-gc0.cycles) / n
	L["go.gc_pause_ms"] = float64(gc1.pauseNs-gc0.pauseNs) / 1e6 / n
	for _, it := range iters {
		L["api.submit_ms"] += ms(it.submit) / n
		L["api.scale_ms"] += ms(it.scale) / n
		L["api.cancel_ms"] += ms(it.cancel) / n
		L["verify_ms"] += it.verifyMs / n
	}
	if cfg.rec != nil {
		reconcileCoordd(res, cfg.rec, iters)
	}
	return res, nil
}
