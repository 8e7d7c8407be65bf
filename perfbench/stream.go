package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"eblow"
	"eblow/internal/core"
	"eblow/internal/gen"
)

// Job classes of the service stream.
const (
	classTiny      = "tiny"      // greedy / row25 1D on tens of characters: cohort material
	classTiny2D    = "tiny2d"    // sa24 2D on tens of characters: lockstep-cohort material
	classPortfolio = "portfolio" // a tiny race: recorded into, and saved by, the learn store
	classMedium    = "medium"    // eblow 1D on ~200 characters
	classBlocker   = "blocker"   // multi-restart sa24 above the cohort character cap
)

// streamSpec is one distinct submission of the stream's pool.
type streamSpec struct {
	Class  string
	Solver string
	In     *eblow.Instance
	Body   []byte // the POST /v1/jobs body
}

// arrival is one scheduled submission.
type arrival struct {
	At    time.Duration // offset from the stream start
	Phase int           // 0 light, 1 heavy
	Block int           // index of the schedule block it is sent in
	Spec  int           // index into the pool
}

// Offered load per CPU in jobs per second, calibrated on the reference
// machine (2 CPUs), where one node's backlog starts to grow near 50 jobs/s
// per CPU. light is about a quarter of that, heavy about 45%: closer to the
// knee the host's own speed swings (single solves of one plan vary by up
// to 40% from second to second) tip the server past capacity at random and
// the heavy-phase percentiles change several-fold between runs. The fleet
// is the tighter case: its ring puts all blockers and medium jobs on one
// single-worker node.
const (
	lightRatePerCPU = 12.0
	heavyRatePerCPU = 22.0
)

// makePool generates the stream's distinct submissions from the seed.
func makePool(seed int64) ([]streamSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	var pool []streamSpec
	add := func(class, solver string, in *core.Instance, restarts int) error {
		b, err := submitBody(in, solver, rng.Int63n(1<<20)+1, restarts, fmt.Sprintf("%s-%d", class, len(pool)))
		if err != nil {
			return err
		}
		pool = append(pool, streamSpec{Class: class, Solver: solver, In: in, Body: b})
		return nil
	}
	// Sizes are spread evenly over each class's range; the seed draws the
	// instances themselves and the solver seeds.
	for i := 0; i < 64; i++ {
		solver := "greedy"
		if i%2 == 1 {
			solver = "row25"
		}
		if err := add(classTiny, solver, gen.Small(core.OneD, 24+i%16, 2, rng.Int63()), 0); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 32; i++ {
		if err := add(classTiny2D, "sa24", gen.Small(core.TwoD, 14+i%10, 2, rng.Int63()), 0); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 12; i++ {
		kind, n := core.OneD, 16+i%6
		if i%2 == 1 {
			kind, n = core.TwoD, 12+i%6
		}
		if err := add(classPortfolio, "portfolio", gen.Small(kind, n, 2, rng.Int63()), 0); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 16; i++ {
		if err := add(classMedium, "eblow", gen.Small(core.OneD, 180+4*i, 4, rng.Int63()), 0); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 8; i++ {
		if err := add(classBlocker, "sa24", gen.Small(core.TwoD, 404+4*i, 2, rng.Int63()), 2); err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// submitBody renders one POST /v1/jobs request.
func submitBody(in *core.Instance, solver string, seed int64, restarts int, label string) ([]byte, error) {
	var inst bytes.Buffer
	if err := json.NewEncoder(&inst).Encode(in); err != nil {
		return nil, err
	}
	req := map[string]any{
		"instance": json.RawMessage(bytes.TrimSpace(inst.Bytes())),
		"solver":   solver,
		"label":    label,
		"params":   map[string]any{"seed": seed, "restarts": restarts},
	}
	return json.Marshal(req)
}

// blocksPerPhase splits each phase into blocks that alternate light,
// heavy, light, heavy, ... over the run, so each phase samples the whole
// run rather than one half of it: the host's speed drifts over tens of
// seconds, and a phase confined to one half would inherit that drift.
const blocksPerPhase = 4

// makeSchedule lays the stream out at evenly spaced send times within
// alternating light and heavy blocks (see blocksPerPhase), phase long in
// total per phase. The class of each job follows a fixed 40-job pattern
// (three blockers, four medium, three portfolio, three tiny 2D, 27 tiny
// 1D) so every seed offers the same mix; within a class the jobs cycle
// through the pool's entries in a seeded order, so each entry is sent
// equally often. The quick tiny 1D jobs are two thirds of the stream, so
// the median falls inside that class rather than on its border with the
// slower classes, and the blockers are 7.5%, so p95 falls inside theirs.
func makeSchedule(seed int64, pool []streamSpec, phase time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	byClass := map[string][]int{}
	for i, s := range pool {
		byClass[s.Class] = append(byClass[s.Class], i)
	}
	for _, c := range []string{classTiny, classTiny2D, classPortfolio, classMedium, classBlocker} {
		ids := byClass[c]
		rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	}
	used := map[string]int{}
	classOf := func(i int) string {
		switch k := i % 40; {
		case k == 13 || k == 26 || k == 39:
			return classBlocker
		case k%10 == 4:
			return classMedium
		case k == 7 || k == 17 || k == 27:
			return classPortfolio
		case k == 9 || k == 19 || k == 29:
			return classTiny2D
		default:
			return classTiny
		}
	}
	cpus := float64(runtime.NumCPU())
	rates := [2]float64{lightRatePerCPU * cpus, heavyRatePerCPU * cpus}
	block := phase / blocksPerPhase
	var out []arrival
	n := 0
	for b := 0; b < 2*blocksPerPhase; b++ {
		p := b % 2
		count := int(rates[p] * block.Seconds())
		gap := time.Duration(float64(time.Second) / rates[p])
		base := time.Duration(b) * block
		for i := 0; i < count; i++ {
			c := classOf(n)
			ids := byClass[c]
			out = append(out, arrival{At: base + time.Duration(i)*gap, Phase: p, Block: b, Spec: ids[used[c]%len(ids)]})
			used[c]++
			n++
		}
	}
	return out
}
