package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"eblow"
	"eblow/internal/batch"
	"eblow/internal/core"
	"eblow/internal/dispatch"
	"eblow/internal/floorsa"
	"eblow/internal/gen"
	"eblow/internal/kdtree"
	"eblow/internal/oned"
	"eblow/internal/pack2d"
	"eblow/internal/seqpair"
	"eblow/internal/service"
	"eblow/internal/solver"
	"eblow/internal/twod"
)

// runProbes measures the per-layer metrics that come from calling one
// module's public functions directly, each call inside a span. Every
// traced run makes them, on fixed inputs (1M-1, 2M-1, 2M-5) with seeds
// from the workload seed, so each workload's traced run reports them.
func runProbes(ctx context.Context, cfg runConfig, tr *Tracer, out *outcome) error {
	m := out.metrics
	for _, p := range []func(context.Context, runConfig, *Tracer, map[string]float64) error{
		probeOneD, probeTwoD, probeKDTree, probeFloorSA, probePack2D, probeBatch, probeWAL, probeRing,
	} {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := p(ctx, cfg, tr, m); err != nil {
			return err
		}
	}
	return nil
}

// timeSpan runs f inside a span and returns its wall time.
func timeSpan(tr *Tracer, name string, f func() error) (time.Duration, error) {
	s := tr.Begin(name, 0, "")
	t0 := time.Now()
	err := f()
	el := time.Since(t0)
	tr.End(s)
	return el, err
}

// probeOneD times oned.Solve on 1M-1 with nproc workers and with one, and
// with post-swap or post-insertion disabled (the stage's cost is measured
// as the difference).
func probeOneD(ctx context.Context, cfg runConfig, tr *Tracer, m map[string]float64) error {
	in := gen.Family1M(1)
	solve := func(name string, edit func(*oned.Options)) (float64, *oned.Trace, error) {
		var times []float64
		var trace *oned.Trace
		for r := 0; r < 3; r++ {
			opt := oned.Defaults()
			opt.Workers = runtime.NumCPU()
			edit(&opt)
			el, err := timeSpan(tr, name, func() error {
				var err error
				_, trace, err = oned.Solve(ctx, in, opt)
				return err
			})
			if err != nil {
				return 0, nil, fmt.Errorf("probe %s: %w", name, err)
			}
			times = append(times, ms(el))
		}
		return median(times), trace, nil
	}
	full, trace, err := solve("oned.Solve", func(*oned.Options) {})
	if err != nil {
		return err
	}
	one, _, err := solve("oned.Solve/1w", func(o *oned.Options) { o.Workers = 1 })
	if err != nil {
		return err
	}
	noSwap, _, err := solve("oned.Solve/no-post-swap", func(o *oned.Options) { o.EnablePostSwap = false })
	if err != nil {
		return err
	}
	noInsert, _, err := solve("oned.Solve/no-post-insert", func(o *oned.Options) { o.EnablePostInsertion = false })
	if err != nil {
		return err
	}
	m["oned.solve_ms"] = full
	m["oned.solve_1w_ms"] = one
	m["oned.worker_speedup"] = one / full
	m["oned.relax_ms"] = ms(trace.RelaxElapsed)
	m["oned.post_swap_ms"] = full - noSwap
	m["oned.post_insert_ms"] = full - noInsert
	m["oned.fast_ilp_vars"] = float64(trace.FastILPVariables)
	m["oned.fast_ilp_pivots"] = float64(trace.FastILPPivots)
	return nil
}

// probeTwoD times twod.Solve on 2M-1, in full and with a one-move budget
// (pre-filter plus clustering, no annealing to speak of).
func probeTwoD(ctx context.Context, cfg runConfig, tr *Tracer, m map[string]float64) error {
	in := gen.Family2M(1)
	opt := twod.Defaults()
	opt.Workers = runtime.NumCPU()
	opt.Seed = cfg.seed
	full, err := timeSpan(tr, "twod.Solve", func() error {
		_, _, err := twod.Solve(ctx, in, opt)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe twod.Solve: %w", err)
	}
	opt.MoveBudget = 1
	var preps []float64
	var stats *twod.Stats
	for r := 0; r < 5; r++ {
		el, err := timeSpan(tr, "twod.Solve/prep", func() error {
			var err error
			_, stats, err = twod.Solve(ctx, in, opt)
			return err
		})
		if err != nil {
			return fmt.Errorf("probe twod prep: %w", err)
		}
		preps = append(preps, ms(el))
	}
	m["twod.solve_ms"] = ms(full)
	m["twod.prep_ms"] = median(preps)
	m["twod.clustered_away_share"] = float64(stats.ClusteredAway) / float64(stats.AfterFilter)
	return nil
}

// probeKDTree times Nearest queries on a 5-d tree of 2M-5's characters
// (size and blank features, as clustering uses them).
func probeKDTree(ctx context.Context, cfg runConfig, tr *Tracer, m map[string]float64) error {
	in := gen.Family2M(5)
	points := make([]kdtree.Point, len(in.Characters))
	ids := make([]int, len(points))
	for i, c := range in.Characters {
		points[i] = kdtree.Point{float64(c.Width), float64(c.Height), float64(c.BlankLeft + c.BlankRight), float64(c.BlankTop + c.BlankBottom), float64(c.VSBShots)}
		ids[i] = i
	}
	tree := kdtree.Build(5, points, ids)
	rng := rand.New(rand.NewSource(cfg.seed))
	const queries = 50000
	qs := make([]kdtree.Point, queries)
	for i := range qs {
		p := points[rng.Intn(len(points))]
		qs[i] = kdtree.Point{p[0] + rng.Float64(), p[1] + rng.Float64(), p[2], p[3], p[4]}
	}
	el, _ := timeSpan(tr, "kdtree.Nearest", func() error {
		for _, q := range qs {
			tree.Nearest(q)
		}
		return nil
	})
	m["kdtree.nearest_ns"] = float64(el.Nanoseconds()) / queries
	return nil
}

// blocks2D turns an instance's characters into annealing blocks.
func blocks2D(in *core.Instance) []floorsa.Block {
	out := make([]floorsa.Block, len(in.Characters))
	for i, c := range in.Characters {
		r := make([]int64, in.NumRegions)
		for k := range r {
			r[k] = in.Reduction(i, k)
		}
		out[i] = floorsa.Block{
			Block:      pack2d.Block{W: c.Width, H: c.Height, BlankL: c.BlankLeft, BlankR: c.BlankRight, BlankT: c.BlankTop, BlankB: c.BlankBottom},
			Reductions: r,
		}
	}
	return out
}

// probeFloorSA anneals 2M-1's characters in one restart, doubling the move
// budget until the run lasts at least a second.
func probeFloorSA(ctx context.Context, cfg runConfig, tr *Tracer, m map[string]float64) error {
	in := gen.Family2M(1)
	blocks := blocks2D(in)
	for budget := 50000; ; budget *= 2 {
		var res *floorsa.Result
		el, _ := timeSpan(tr, "floorsa.Pack", func() error {
			res = floorsa.Pack(ctx, blocks, in.VSBTime(), in.StencilWidth, in.StencilHeight,
				floorsa.Options{MoveBudget: budget, Seed: cfg.seed, Restarts: 1, Workers: 1})
			return nil
		})
		if err := ctx.Err(); err != nil {
			return err
		}
		if el >= time.Second || budget >= 1<<24 {
			m["floorsa.moves_per_s"] = float64(res.Moves) / el.Seconds()
			m["floorsa.accept_share"] = float64(res.Accepted) / float64(res.Moves)
			return nil
		}
	}
}

// probePack2D times SwapBoth plus Reevaluate, the anneal's inner step, on
// 2M-1's blocks from a seeded random sequence pair.
func probePack2D(ctx context.Context, cfg runConfig, tr *Tracer, m map[string]float64) error {
	in := gen.Family2M(1)
	fb := blocks2D(in)
	blocks := make([]pack2d.Block, len(fb))
	for i, b := range fb {
		blocks[i] = b.Block
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	inc := pack2d.NewIncremental(seqpair.Random(len(blocks), rng), blocks, in.StencilWidth, in.StencilHeight)
	flips := inc.Reevaluate(nil)
	const moves = 30000
	el, _ := timeSpan(tr, "pack2d.Reevaluate", func() error {
		for i := 0; i < moves; i++ {
			inc.SwapBoth(rng.Intn(len(blocks)), rng.Intn(len(blocks)))
			flips = inc.Reevaluate(flips[:0])
		}
		return nil
	})
	m["pack2d.reevaluate_ns"] = float64(el.Nanoseconds()) / moves
	return nil
}

// probeBatch compares eight tiny sa24 solves run one by one with the same
// eight run as one batch.Execute cohort.
func probeBatch(ctx context.Context, cfg runConfig, tr *Tracer, m map[string]float64) error {
	units := make([]batch.Unit, 8)
	for i := range units {
		units[i] = batch.Unit{
			Ctx:      ctx,
			Instance: gen.Small(core.TwoD, 14+i, 2, cfg.seed*100+int64(i)),
			Strategy: "sa24",
			Params:   solver.Params{Seed: 1, Workers: 1},
		}
	}
	var ratios []float64
	for r := 0; r < 5; r++ {
		solo, err := timeSpan(tr, "solver.Solve/x8", func() error {
			for _, u := range units {
				if _, err := solver.Solve(u.Ctx, u.Strategy, u.Instance, u.Params); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("probe batch solo: %w", err)
		}
		cohort, err := timeSpan(tr, "batch.Execute", func() error {
			for _, r := range batch.Execute(units, 1) {
				if r.Err != nil {
					return r.Err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("probe batch cohort: %w", err)
		}
		ratios = append(ratios, solo.Seconds()/cohort.Seconds())
	}
	m["batch.cohort_speedup"] = median(ratios)
	return nil
}

// probeWAL times in-process Manager.Submit with and without a WAL: the
// difference is the durable-ack cost (record encode, append, fsync).
func probeWAL(ctx context.Context, cfg runConfig, tr *Tracer, m map[string]float64) error {
	in := gen.Small(core.OneD, 24, 2, cfg.seed)
	submit := func(name string, wal *service.WAL) (float64, error) {
		mgr := service.New(service.Config{Workers: 1, WAL: wal})
		defer mgr.Close()
		var times []float64
		for i := 0; i < 60; i++ {
			el, err := timeSpan(tr, name, func() error {
				_, err := mgr.Submit(service.JobSpec{Instance: in, Solver: "greedy", Params: eblow.Params{Seed: 1}})
				return err
			})
			if err != nil {
				return 0, fmt.Errorf("probe %s: %w", name, err)
			}
			times = append(times, float64(el.Microseconds()))
		}
		return median(times), nil
	}
	plain, err := submit("service.Submit", nil)
	if err != nil {
		return err
	}
	wal, err := service.OpenWAL(filepath.Join(cfg.work, "probe.wal"), service.DefaultWALMaxBytes)
	if err != nil {
		return err
	}
	durable, err := submit("service.Submit/wal", wal)
	if err != nil {
		return err
	}
	m["service.wal_submit_us"] = durable - plain
	return nil
}

// probeRing times consistent-hash lookups on a two-node ring.
func probeRing(ctx context.Context, cfg runConfig, tr *Tracer, m map[string]float64) error {
	ring := dispatch.NewRing(dispatch.DefaultVNodes)
	ring.Add("a")
	ring.Add("b")
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = eblow.Fingerprint(gen.Small(core.Kind(i%2), 16+i, 1+i%10, cfg.seed+int64(i))).Key()
	}
	const lookups = 200000
	el, _ := timeSpan(tr, "dispatch.Ring.Owner", func() error {
		for i := 0; i < lookups; i++ {
			ring.Owner(keys[i%len(keys)])
		}
		return nil
	})
	m["dispatch.ring_owner_ns"] = float64(el.Nanoseconds()) / lookups
	return nil
}
