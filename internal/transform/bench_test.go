package transform

import (
	"context"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
)

// The datapath benchmarks run both pipelines on identical workloads:
// "streamed" is the production zero-copy path (one destination
// allocation per assignment, ranges fetched into their final offsets),
// "materialized" is the retained reference (fetch sub-tensors, then
// assemble). Each reports copy amplification (bytes physically copied
// per plan byte) as a custom metric, so `go test -bench` output doubles
// as the copy-accounting record.

func benchPipelines(b *testing.B, run func(b *testing.B, p Pipeline)) {
	b.Run("streamed", func(b *testing.B) { run(b, Streamed) })
	b.Run("materialized", func(b *testing.B) { run(b, Materialized) })
}

// BenchmarkApplyTPReshard measures the full pipeline: plan + parallel
// fetch + stage + commit for a TP 2->4 re-shard of a reduced-scale GPT
// (real bytes through local stores).
func BenchmarkApplyTPReshard(b *testing.B) {
	m := model.GPTCustom(4, 128, 4, 512, 32) // ~1.1 MB of state
	from, err := parallel.BuildPTC(m, parallel.Config{TP: 2, PP: 1, DP: 1}, alloc(2))
	if err != nil {
		b.Fatal(err)
	}
	to, err := parallel.BuildPTC(m, parallel.Config{TP: 4, PP: 1, DP: 1}, alloc(4))
	if err != nil {
		b.Fatal(err)
	}
	golden := goldenState(from)
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	benchPipelines(b, func(b *testing.B, p Pipeline) {
		b.SetBytes(m.ParamBytes())
		b.ReportAllocs()
		var last Stats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			stores := localStores(alloc(4))
			if err := LoadPTC(context.Background(), "bench", from, stores, golden); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			tr := &Transformer{Job: "bench", Stores: stores, Pipeline: p}
			st, err := tr.Apply(context.Background(), plan)
			if err != nil {
				b.Fatal(err)
			}
			last = st
		}
		b.ReportMetric(last.CopyAmplification(), "copy-amp")
		b.ReportMetric(float64(last.AllocBytes), "alloc-B/op")
	})
}

// BenchmarkApplyDistributed measures the per-worker execution path on
// the same workload.
func BenchmarkApplyDistributed(b *testing.B) {
	topo := cluster.OnPrem16()
	m := model.GPTCustom(4, 128, 4, 512, 32)
	from, err := parallel.BuildPTC(m, parallel.Config{TP: 2, PP: 2, DP: 1}, alloc(4))
	if err != nil {
		b.Fatal(err)
	}
	to, err := parallel.BuildPTC(m, parallel.Config{TP: 2, PP: 2, DP: 2}, alloc(8))
	if err != nil {
		b.Fatal(err)
	}
	golden := goldenState(from)
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		b.Fatal(err)
	}
	benchPipelines(b, func(b *testing.B, p Pipeline) {
		b.SetBytes(m.ParamBytes())
		b.ReportAllocs()
		var last Stats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			stores := localStores(alloc(8))
			if err := LoadPTC(context.Background(), "bench", from, stores, golden); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			tr := &Transformer{Job: "bench", Stores: stores, Topo: topo, Pipeline: p}
			st, err := tr.Apply(context.Background(), plan)
			if err != nil {
				b.Fatal(err)
			}
			last = st
		}
		b.ReportMetric(last.CopyAmplification(), "copy-amp")
		b.ReportMetric(float64(last.AllocBytes), "alloc-B/op")
	})
}
