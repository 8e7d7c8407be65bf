// Command perfbench is the repository's benchmark: it plans the paper's
// MCC 1D instances in-process (plan-1d) and drives real eblowd
// processes over loopback HTTP (serve, fleet), checks every plan and
// digest, and prints one JSON result line. See README.md.
//
//	perfbench --workload plan-1d --seed 1 --seconds 40 --trace 0
//	perfbench compare parent.jsonl change.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, cfg runConfig, tr *Tracer) (*outcome, error){
	"plan-1d": runPlan1D,
	"serve":   runServe,
	"fleet":   runFleet,
}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root: the module under test
	eblowd   string // eblowd binary (serve, fleet)
	work     string // scratch directory for WALs and learn stores, removed at the end
	record   string // optional JSON-lines file each result is appended to
}

// outcome is what one workload run measured.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // correctness failures, each also counted in failed
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// record is one run as appended to --record: what compare mode reads.
type record struct {
	Env     envStamp           `json:"env"`
	Correct bool               `json:"correct"`
	Metrics map[string]float64 `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "workload: plan-1d, serve or fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 40, "how long one run measures")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.root, "root", ".", "checkout root (the module under test)")
	flag.StringVar(&cfg.eblowd, "eblowd", "", "eblowd binary built from the checkout (serve, fleet)")
	flag.StringVar(&cfg.record, "record", "", "append the run's environment and metrics to this JSON-lines file")
	flag.Parse()
	cfg.trace = *trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run whose result line says "correct": false.
var errIncorrect = errors.New("some outputs failed their checks")

func run(cfg runConfig) error {
	runner, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return err
	}
	cfg.root = root
	cfg.work = filepath.Join(root, ".bench_build", "perfbench", "work", cfg.workload+"-"+strconv.FormatInt(cfg.seed, 10)+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)

	// SIGINT/SIGTERM cancel the run; child servers are stopped on the way
	// out (and die with us via Pdeathsig if we are killed outright).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env := stamp(root, cfg)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)

	var out *outcome
	if cfg.trace {
		out, err = runTraced(ctx, cfg, runner)
	} else {
		out, err = runner(ctx, cfg, nil)
	}
	if err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := resultLine{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if line.Attempted < 1 {
		return errors.New("nothing was attempted")
	}
	if cfg.record != "" {
		if err := appendRecord(cfg.record, record{Env: env, Correct: line.Correct, Metrics: out.metrics}); err != nil {
			return err
		}
	}
	printSummary(defs, out.metrics)
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return errIncorrect
	}
	return nil
}

// runTraced runs the workload once untraced and once traced (their ratio
// is trace.overhead_share), then the per-layer probes, and writes the
// spans under .bench_build/perfbench/spans.
func runTraced(ctx context.Context, cfg runConfig, runner func(context.Context, runConfig, *Tracer) (*outcome, error)) (*outcome, error) {
	plain, err := runner(ctx, cfg, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	out, err := runner(ctx, cfg, tr)
	if err != nil {
		return nil, err
	}
	out.attempted += plain.attempted
	out.failed += plain.failed
	out.problems = append(out.problems, plain.problems...)
	// The plan workloads are judged by throughput, the service ones by the
	// light phase's median latency (where per-request costs dominate).
	if cfg.workload == "serve" || cfg.workload == "fleet" {
		out.metrics["trace.overhead_share"] = out.metrics["light.p50_ms"]/plain.metrics["light.p50_ms"] - 1
	} else {
		out.metrics["trace.overhead_share"] = plain.metrics["chars_per_s"]/out.metrics["chars_per_s"] - 1
	}
	if err := runProbes(ctx, cfg, tr, out); err != nil {
		return nil, err
	}
	spans := tr.Spans()
	out.metrics["trace.spans"] = float64(len(spans))
	self := selfByName(spans)
	for name, metric := range selfMetrics {
		out.metrics[metric] = ms(self[name])
	}
	dir := filepath.Join(cfg.root, ".bench_build", "perfbench", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.WriteFile(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return out, nil
}

// selfMetrics maps span names to the self-time metric reporting them.
var selfMetrics = map[string]string{
	"plan":          "self.plan_ms",
	"validate":      "self.validate_ms",
	"http.submit":   "self.http_submit_ms",
	"http.status":   "self.http_status_ms",
	"http.result":   "self.http_result_ms",
	"server.queue":  "self.server_queue_ms",
	"server.solve":  "self.server_solve_ms",
	"dispatch.held": "self.dispatch_held_ms",
	"job":           "self.job_ms",
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("appending record: %w", err)
	}
	b, _ := json.Marshal(r)
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending record: %w", err)
	}
	return f.Close()
}

// printSummary writes the metrics to stderr for a human reader.
func printSummary(defs []metricDef, m map[string]float64) {
	names := make([]string, 0, len(defs))
	unit := map[string]string{}
	for _, d := range defs {
		names = append(names, d.Name)
		unit[d.Name] = d.Unit
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f %s\n", n, m[n], unit[n])
	}
}

// sleepCtx waits d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
