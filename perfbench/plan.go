package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"eblow"
)

// plan1DSet is the plan-1d instance set: the paper's MCC 1D family, four
// 1000-character cases plus one 4000-character case that varies the
// working set.
var plan1DSet = []string{"1M-1", "1M-2", "1M-3", "1M-4", "1M-5"}

func runPlan1D(ctx context.Context, cfg runConfig, tr *Tracer) (*outcome, error) {
	return runPlan(ctx, cfg, tr, plan1DSet)
}

// buildSet generates the named instances (the planner sees only these).
func buildSet(names []string) ([]*eblow.Instance, error) {
	out := make([]*eblow.Instance, len(names))
	for i, n := range names {
		in, err := eblow.Benchmark(n)
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// planSolverSeed is the fixed Params.Seed of every plan.
const planSolverSeed = 1

// runPlan is the closed loop: one eblow.SolveWith at a time with
// Workers = nproc and a fixed seed, in passes over the instance set until
// the run time is used (the last pass completes).
func runPlan(ctx context.Context, cfg runConfig, tr *Tracer, names []string) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}

	// Set-up is instance generation; repeat it and keep the median.
	var setups []float64
	var set []*eblow.Instance
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		s, err := buildSet(names)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		set = s
	}
	out.metrics["setup_s"] = median(setups)

	// The solver seed is fixed, so every workload seed plans the same
	// instances the same way; the workload seed orders the passes. Whole
	// passes only, so every instance is planned equally often.
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(set))
	params := eblow.Params{Workers: runtime.NumCPU(), Seed: planSolverSeed}
	times := make([][]float64, len(set)) // per instance, ms
	rss := make([][]float64, len(set))   // per instance, peak MB during the solve
	objective := make([]int64, len(set))
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for k := 0; k%len(order) != 0 || k == 0 || time.Now().Before(deadline); k++ {
		idx := order[k%len(order)]
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		in := set[idx]
		out.attempted++
		resetPeakRSS()
		span := tr.Begin("plan", 0, in.Name)
		t0 := time.Now()
		res, err := eblow.SolveWith(ctx, in, params)
		el := time.Since(t0)
		rss[idx] = append(rss[idx], peakRSSMB(0))
		if err != nil {
			tr.End(span)
			out.fail("%s: %v", in.Name, err)
			continue
		}
		v := tr.Begin("validate", span, in.Name)
		checkPlan(out, in, res, objective, idx)
		tr.End(v)
		tr.End(span)
		times[idx] = append(times[idx], ms(el))
	}

	// chars_per_s: one pass of the set at each instance's median time.
	// The light class is the set's smaller instances, the heavy class its
	// largest (the 4000-character case).
	largest := 0
	for _, in := range set {
		largest = max(largest, in.NumCharacters())
	}
	// An instance is planned only a few times in a run, so the class
	// percentiles are taken over the instances' median solve times (with
	// one heavy instance, heavy p50 and p95 are both its median).
	var chars, passMs, heavyMs, peak float64
	var light, heavy, wts []float64
	for i, in := range set {
		if len(times[i]) == 0 {
			return nil, fmt.Errorf("%s was never planned successfully", in.Name)
		}
		t := median(times[i])
		chars += float64(in.NumCharacters())
		passMs += t
		peak = max(peak, median(rss[i]))
		wts = append(wts, float64(objective[i]))
		if in.NumCharacters() == largest {
			heavy = append(heavy, t)
			heavyMs += t
		} else {
			light = append(light, t)
		}
	}
	m := out.metrics
	m["chars_per_s"] = chars / (passMs / 1000)
	m["writing_time"] = geomean(wts)
	m["light.p50_ms"] = percentile(light, 0.50)
	m["light.p95_ms"] = percentile(light, 0.95)
	m["heavy.p50_ms"] = percentile(heavy, 0.50)
	m["heavy.p95_ms"] = percentile(heavy, 0.95)
	// A closed loop has no latency limit: goodput is the heavy class's
	// plans per second of (median) solve time.
	m["heavy.goodput_per_s"] = float64(len(heavy)) / (heavyMs / 1000)
	m["ok_share"] = float64(out.attempted-out.failed) / float64(out.attempted)
	m["peak_rss_mb"] = peak
	m["loadgen.sent"] = float64(out.attempted)
	m["loadgen.ok"] = float64(out.attempted - out.failed)
	m["loadgen.failed"] = float64(out.failed)
	fillZero(m, planNotApplicable)
	return out, nil
}

// checkPlan validates one plan against its instance and checks that
// repeated plans of one instance are identical in objective.
func checkPlan(out *outcome, in *eblow.Instance, res *eblow.Result, objective []int64, idx int) {
	if res.Solution == nil {
		out.fail("%s: no plan", in.Name)
		return
	}
	switch err := res.Solution.Validate(in); {
	case err != nil:
		out.fail("%s: invalid plan: %v", in.Name, err)
	case !res.Feasible || res.Objective != res.Solution.WritingTime:
		out.fail("%s: result reports feasible=%v objective %d, plan writes in %d", in.Name, res.Feasible, res.Objective, res.Solution.WritingTime)
	case objective[idx] != 0 && objective[idx] != res.Objective:
		out.fail("%s: objective %d differs from the first plan's %d", in.Name, res.Objective, objective[idx])
	default:
		objective[idx] = res.Objective
	}
}

// planNotApplicable lists the traffic-derived per-layer metrics a plan
// workload has no traffic for; they read 0 there.
var planNotApplicable = []string{
	"light.batch.cohorts", "light.batch.batched_share", "light.batch.max_cohort", "light.batch.overtakes", "light.batch.aged_pops",
	"heavy.batch.cohorts", "heavy.batch.batched_share", "heavy.batch.max_cohort", "heavy.batch.overtakes", "heavy.batch.aged_pops",
	"service.submit_rtt_ms", "service.outside_ms", "service.result_rtt_ms",
	"service.queue_wait_p50_ms", "service.queue_wait_p95_ms", "service.solve_p50_ms", "service.solve_p95_ms",
	"learn.save_ms", "learn.saves", "dispatch.outside_ms", "dispatch.submit_rtt_ms", "dispatch.node_share_max", "dispatch.failovers",
	"loadgen.late_p99_ms", "trace.unaccounted_ms",
}

func fillZero(m map[string]float64, names []string) {
	for _, n := range names {
		if _, ok := m[n]; !ok {
			m[n] = 0
		}
	}
}
