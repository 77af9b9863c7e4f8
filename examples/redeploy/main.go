// Redeployment over the wire: the Fig. 10 scenario with real REST
// Tensor Stores. The job runs on workers 0–1; the target workers 2–3
// expose their stores over HTTP, and the State Transformer migrates the
// partitioned state to them with sub-tensor range queries.
//
//	go run ./examples/redeploy
package main

import (
	"context"
	"fmt"
	"log"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/transform"
)

func main() {
	topo := cluster.OnPrem16()
	m := model.GPTCustom(6, 64, 4, 512, 32)
	cfg := parallel.Config{TP: 2, PP: 2, DP: 2}
	fromAlloc := topo.DevicesOn(0, 1)
	toAlloc := topo.DevicesOn(2, 3)

	// Source devices use in-process stores; destination devices are
	// "remote": their stores are served over real HTTP sockets.
	stores := map[cluster.DeviceID]store.Access{}
	var servers []*store.Server
	for _, d := range fromAlloc {
		stores[d] = store.Local{FS: store.NewMemFS()}
	}
	for _, d := range toAlloc {
		srv := store.NewServer(store.NewMemFS())
		addr, closeFn, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer func() { _ = closeFn() }()
		servers = append(servers, srv)
		stores[d] = &store.Client{Base: "http://" + addr}
		fmt.Printf("device %2d: remote tensor store at http://%s\n", d, addr)
	}

	const job = "redeploy"
	from, err := parallel.BuildPTC(m, cfg, fromAlloc)
	if err != nil {
		log.Fatal(err)
	}
	to, err := parallel.BuildPTC(m, cfg, toAlloc)
	if err != nil {
		log.Fatal(err)
	}
	full := map[core.TensorID]*tensor.Tensor{}
	for i, lp := range m.StateParams() {
		t := tensor.New(lp.Param.DType, lp.Param.Shape...)
		t.FillRand(int64(i), 0.05)
		full[core.TensorID(lp.Path())] = t
	}
	if err := transform.LoadPTC(context.Background(), job, from, stores, full); err != nil {
		log.Fatal(err)
	}

	plan, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		log.Fatal(err)
	}
	st, err := (&transform.Transformer{Job: job, Stores: stores}).Apply(context.Background(), plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("migrated %d assignments in %v: %.1f MB over the wire\n",
		st.Assignments, st.Duration.Round(1000000), float64(st.PeerBytes)/1e6)

	var received int64
	for _, s := range servers {
		received += s.BytesReceived()
	}
	fmt.Printf("remote stores received %.1f MB of uploads\n", float64(received)/1e6)

	// Verify on the remote side.
	for _, d := range toAlloc {
		for _, sub := range to.Place[d] {
			got, err := stores[d].Query(transform.ModelPath(job, d, sub.Tensor), nil)
			if err != nil {
				log.Fatal(err)
			}
			if !got.Equal(full[sub.Tensor].Slice(sub.Region)) {
				log.Fatalf("device %d holds wrong bytes for %s", d, sub.Tensor)
			}
		}
	}
	fmt.Println("verified: every remote partition matches the source state")
}
