package main

import (
	"fmt"
	"strings"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/coordinator"
	"tenplex/internal/experiments"
	"tenplex/internal/obs"
)

// dcscaleOutcome is the deterministic scheduling outcome of one replay.
type dcscaleOutcome struct {
	events, plans, preemptions, completions int
}

// dcscaleSeed77 is the outcome recorded at the repository's dcscale
// seed (experiments.DCScaleSeed) on the 512-device, 200-job cell.
var dcscaleSeed77 = dcscaleOutcome{events: 403, plans: 517, preemptions: 175, completions: 200}

// dcscaleScenario is the replayed scenario: the repository's
// datacenter-scale cell, 512 devices and 200 contending elastic jobs
// arriving on the experiments.DCScaleSeed trace, with its three
// fail-stop failures moved by whole 8-device nodes according to seed
// (seed DCScaleSeed keeps them where the repository puts them).
//
// The seed does not pick the arrival trace, so every replay has one
// exact expected outcome, and contention differences between traces
// (on 2 cores one trace decided about 20% faster than another across
// three replays each) do not add to the run-to-run spread.
func dcscaleScenario(seed int64) (*cluster.Topology, []coordinator.JobSpec, []coordinator.FailureSpec) {
	const devices, nodes = 512, 512 / 8
	topo, specs, failures := experiments.DCScaleScenario(devices, 200, experiments.DCScaleSeed)
	shift := ((seed-experiments.DCScaleSeed)%nodes + nodes) % nodes * 8
	for i := range failures {
		failures[i].Device = cluster.DeviceID((int64(failures[i].Device) + shift) % devices)
	}
	return topo, specs, failures
}

// replay runs the ModeSim coordinator over one scenario.
func replay(seed int64, tr *obs.Tracer) (coordinator.Result, dcscaleOutcome, error) {
	topo, specs, failures := dcscaleScenario(seed)
	res, err := coordinator.Run(topo, specs, failures, coordinator.Options{
		Placement:       true,
		RecordDecisions: true,
		AuditStride:     experiments.DCScaleAuditStride,
		Obs:             tr,
	})
	if err != nil {
		return res, dcscaleOutcome{}, err
	}
	out := dcscaleOutcome{events: len(res.DecisionNs), plans: res.PlansValidated, preemptions: res.Preemptions}
	for _, j := range res.Jobs {
		if j.Completed {
			out.completions++
		}
	}
	return res, out, nil
}

// plausible checks what holds for every trace: each job arrives and
// completes, and each failure is one event.
func (o dcscaleOutcome) plausible() error {
	const jobs, failures = 200, 3
	if o.events != 2*jobs+failures || o.completions != jobs || o.plans < jobs {
		return fmt.Errorf("outcome %+v: want %d events, %d completions, >= %d plans",
			o, 2*jobs+failures, jobs, jobs)
	}
	return nil
}

// runDCScale measures the decision plane: replays of the scenario, one
// at a time, pooling the latency of every decision-plane event handler.
// The set-up replay's outcome must be plausible (and, at the
// repository seed, equal the recorded one); every measured replay's
// must equal it.
func runDCScale(cfg runConfig) (*result, error) {
	res := &result{layers: map[string]float64{}}
	var ref dcscaleOutcome
	for i := 0; i < setupReps && res.failed == 0; i++ { // a failed set-up is not repeated
		// Set-up builds the scenario and replays it once.
		t0 := time.Now()
		_, out, err := replay(cfg.seed, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up replay: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		if i > 0 && out != ref {
			res.attempted++
			res.fail("set-up replays disagree: %+v vs %+v", out, ref)
		}
		ref = out
	}
	if err := ref.plausible(); err != nil {
		res.attempted++
		res.fail("set-up replay: %v", err)
	}
	if cfg.seed == experiments.DCScaleSeed && ref != dcscaleSeed77 {
		res.attempted++
		res.fail("seed %d: outcome %+v, recorded %+v", cfg.seed, ref, dcscaleSeed77)
	}

	var (
		decideNs, planNs, reconfNs, verifyNs int64
		outcomes                             []dcscaleOutcome
		spans                                int
	)
	heap := startHeapSampler()
	gc0 := readGC()
	start := time.Now()
	for i := 0; cfg.more(start, len(res.opMs)); i++ {
		var tracer *obs.Tracer
		if cfg.rec != nil {
			tracer = obs.New(obs.Options{})
		}
		r, out, err := replay(cfg.seed, tracer)
		if err == nil && out != ref {
			err = fmt.Errorf("outcome %+v, set-up replay gave %+v", out, ref)
		}
		if err != nil {
			// A failed replay misses on every decision it should have made.
			for range ref.events {
				res.attempted++
				res.fail("replay %d: %v", i, err)
				res.opMs = append(res.opMs, missMs)
			}
			continue
		}
		outcomes = append(outcomes, out)
		res.attempted += len(r.DecisionNs)
		for _, ns := range r.DecisionNs {
			res.opMs = append(res.opMs, float64(ns)/1e6)
			decideNs += ns
		}
		if tracer != nil {
			for _, s := range tracer.Export().Spans {
				switch {
				case s.Name == obs.SpanPlan:
					planNs += s.WallNs
				case s.Name == obs.SpanVerify:
					verifyNs += s.WallNs
				case strings.HasPrefix(s.Name, obs.ReconfigPrefix):
					reconfNs += s.WallNs
				}
			}
			spans += tracer.SpanCount()
		}
	}
	gc1 := readGC()
	res.peakHeapMB = heap.finish()
	res.report = []metric{
		{"decide_p50_us", 1e3 * percentile(res.opMs, 0.5), "us"},
		{"decide_p90_us", 1e3 * percentile(res.opMs, 0.9), "us"},
		{"replays", float64(len(outcomes)), "count"},
		{"decisions", float64(len(res.opMs)), "count"},
	}
	if len(outcomes) == 0 {
		return res, nil
	}
	n := float64(len(outcomes))
	L := res.layers
	for _, o := range outcomes {
		L["coordinator.events"] += float64(o.events) / n
		L["coordinator.plans"] += float64(o.plans) / n
		L["coordinator.preemptions"] += float64(o.preemptions) / n
	}
	L["coordinator.decide_ms"] = float64(decideNs) / 1e6 / n
	L["go.gc_cycles"] = float64(gc1.cycles-gc0.cycles) / n
	L["go.gc_pause_ms"] = float64(gc1.pauseNs-gc0.pauseNs) / 1e6 / n
	if cfg.rec != nil {
		// The coordinator's own phase spans split a replay: planning
		// (inside the decision handlers), the rest of each
		// reconfiguration (transform and checkpoint on the execution
		// plane) and completion-time verification.
		L["core.plan_ms"] = float64(planNs) / 1e6 / n
		L["transform.apply_ms"] = float64(reconfNs-planNs) / 1e6 / n
		L["verify_ms"] = float64(verifyNs) / 1e6 / n
		L["coordinator.self_ms"] = float64(decideNs-planNs) / 1e6 / n
		L["trace.spans"] = float64(spans)
	}
	return res, nil
}
