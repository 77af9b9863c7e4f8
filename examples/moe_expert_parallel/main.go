// Expert parallelism (§4.3): a mixture-of-experts model whose experts
// are grouped by the PTC's partitioning function φ (σ stays the
// identity). Growing the expert-parallel degree moves only the expert
// tensors that change owners; attention stays replicated.
//
//	go run ./examples/moe_expert_parallel
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
	m := model.MoECustom(4, 32, 8) // 4 blocks, hidden 32, 8 experts
	fmt.Printf("model %s: %d experts, %.1f MB parameters\n",
		m.Name, m.NumExperts(), float64(m.ParamBytes())/1e6)

	from, err := parallel.BuildMoEPTC(m, parallel.MoEConfig{EP: 2, DP: 1}, topo.FirstN(2))
	if err != nil {
		log.Fatal(err)
	}
	to, err := parallel.BuildMoEPTC(m, parallel.MoEConfig{EP: 4, DP: 1}, topo.FirstN(4))
	if err != nil {
		log.Fatal(err)
	}

	stores := map[cluster.DeviceID]store.Access{}
	for _, d := range topo.Devices {
		stores[d.ID] = store.Local{FS: store.NewMemFS()}
	}
	full := map[core.TensorID]*tensor.Tensor{}
	for i, lp := range m.StateParams() {
		t := tensor.New(lp.Param.DType, lp.Param.Shape...)
		t.FillRand(int64(i), 0.05)
		full[core.TensorID(lp.Path())] = t
	}
	const job = "moe"
	if err := transform.LoadPTC(context.Background(), job, from, stores, full); err != nil {
		log.Fatal(err)
	}

	plan, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		log.Fatal(err)
	}
	st := plan.Stats(topo)
	fmt.Printf("EP 2 -> 4 plan: %d fetches, %d splits, %d merges, %.2f MB to move (model: %.1f MB)\n",
		st.Fetches, st.Splits, st.Merges, float64(st.MovedBytes)/1e6, float64(m.ParamBytes())/1e6)

	if _, err := (&transform.Transformer{Job: job, Stores: stores}).Apply(context.Background(), plan); err != nil {
		log.Fatal(err)
	}
	// Verify the new expert layout.
	for _, d := range to.Devices {
		for _, s := range to.Place[d] {
			got, err := stores[d].Query(transform.ModelPath(job, d, s.Tensor), nil)
			if err != nil {
				log.Fatal(err)
			}
			if !got.Equal(full[s.Tensor].Slice(s.Region)) {
				log.Fatalf("device %d holds wrong bytes for %s", d, s.Tensor)
			}
		}
	}
	fmt.Println("verified: experts re-grouped across 4 devices, attention replicated, zero splits/merges")
}
