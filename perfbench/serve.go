package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"eblow"
	"eblow/internal/core"
	"eblow/internal/learn"
	"eblow/internal/service"
)

// sloLatency is the job latency limit goodput counts against.
const sloLatency = 400 * time.Millisecond

func runServe(ctx context.Context, cfg runConfig, tr *Tracer) (*outcome, error) {
	return runService(ctx, cfg, tr, false)
}

func runFleet(ctx context.Context, cfg runConfig, tr *Tracer) (*outcome, error) {
	return runService(ctx, cfg, tr, true)
}

// server is one eblowd child process.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has been waited for
}

// startServer starts eblowd and returns once it printed its address.
func startServer(bin string, args []string, logPath string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting eblowd: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	urls := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, u, ok := strings.Cut(sc.Text(), "listening on "); ok {
				urls <- strings.TrimSpace(u)
			}
		}
		close(urls)
		_ = cmd.Wait()
		logf.Close()
		close(s.done)
	}()
	select {
	case u, ok := <-urls:
		if !ok {
			<-s.done
			return nil, fmt.Errorf("eblowd exited before listening (log: %s)", logPath)
		}
		s.url = u
		return s, nil
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("eblowd did not report its address within 30s")
	}
}

// stop interrupts the server, kills it if it does not exit within ten
// seconds, and waits for it.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// cluster is the system under test: one eblowd, or a dispatcher in front
// of backends.
type cluster struct {
	front string
	procs []*server
}

func (c *cluster) stop() {
	for i := len(c.procs) - 1; i >= 0; i-- {
		c.procs[i].stop()
	}
}

func (c *cluster) peakRSSMB() float64 {
	var sum float64
	for _, p := range c.procs {
		sum += peakRSSMB(p.cmd.Process.Pid)
	}
	return sum
}

// startCluster boots the system in dir and returns it with its set-up time:
// from the first process start until the front end accepts a request.
func startCluster(ctx context.Context, cfg runConfig, client *http.Client, fleet bool, dir string) (*cluster, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	c := &cluster{}
	t0 := time.Now()
	boot := func(name string, args ...string) (*server, error) {
		s, err := startServer(cfg.eblowd, append([]string{"-addr", "127.0.0.1:0"}, args...), filepath.Join(dir, name+".log"))
		if err != nil {
			return nil, err
		}
		c.procs = append(c.procs, s)
		return s, waitReady(ctx, client, s.url)
	}
	fail := func(err error) (*cluster, time.Duration, error) {
		c.stop()
		return nil, 0, err
	}
	nproc := runtime.NumCPU()
	if !fleet {
		s, err := boot("serve", "-workers", fmt.Sprint(nproc), "-wal", filepath.Join(dir, "serve.wal"), "-learn-path", filepath.Join(dir, "serve.learn.json"))
		if err != nil {
			return fail(err)
		}
		c.front = s.url
		return c, time.Since(t0), nil
	}
	perNode := max(1, nproc/2)
	var nodes []string
	for _, name := range []string{"a", "b"} {
		s, err := boot(name, "-workers", fmt.Sprint(perNode), "-wal", filepath.Join(dir, name+".wal"), "-learn-path", filepath.Join(dir, name+".learn.json"))
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, name+"="+s.url)
	}
	d, err := boot("dispatch", "-dispatch", strings.Join(nodes, ","), "-wal", filepath.Join(dir, "dispatch.wal"))
	if err != nil {
		return fail(err)
	}
	c.front = d.url
	return c, time.Since(t0), nil
}

// waitReady polls GET /v1/stats until it answers 200.
func waitReady(ctx context.Context, client *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(url + "/v1/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := sleepCtx(ctx, time.Millisecond); err != nil {
			return err
		}
	}
	return fmt.Errorf("%s not ready within 30s", url)
}

// jobDoc is the part of a job document the benchmark reads.
type jobDoc struct {
	ID        string    `json:"id"`
	State     string    `json:"state"`
	Node      string    `json:"node"`
	Error     string    `json:"error"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	Result    *struct {
		Strategy  string         `json:"strategy"`
		Objective int64          `json:"objective"`
		Feasible  bool           `json:"feasible"`
		Digest    string         `json:"digest"`
		Solution  *core.Solution `json:"solution"`
		Runs      []struct {
			Name      string `json:"name"`
			ElapsedMs int64  `json:"elapsedMs"`
			OK        bool   `json:"ok"`
			Objective int64  `json:"objective"`
		} `json:"runs"`
	} `json:"result"`
}

func terminal(state string) bool { return state == "done" || state == "failed" || state == "canceled" }

// jobRun is one submission's life as the client saw it.
type jobRun struct {
	arr       arrival
	span      int
	sched     time.Time
	send, ack time.Time
	id        string
	ackNode   string
	err       string
	doc       jobDoc // the final /result document
	resultRTT time.Duration
}

// statsDoc reads the batch counters from GET /v1/stats on a node or on a
// dispatcher (which sums its nodes under "fleet").
type statsDoc struct {
	Batch service.BatchStats `json:"batch"`
	Fleet *service.Stats     `json:"fleet"`
}

func (s statsDoc) batch() service.BatchStats {
	if s.Fleet != nil {
		return s.Fleet.Batch
	}
	return s.Batch
}

// loadgen drives one cluster with the stream.
type loadgen struct {
	client     *http.Client // submits
	pollClient *http.Client // status polls, result reads, stats
	pollers    int          // the poll client's connections
	url        string
	tr         *Tracer
	pool       []streamSpec
	jobs       []*jobRun // index-aligned with the schedule
}

func (g *loadgen) getJSON(ctx context.Context, path string, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.url+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := g.pollClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

func (g *loadgen) stats(ctx context.Context) (service.BatchStats, error) {
	var s statsDoc
	code, err := g.getJSON(ctx, "/v1/stats", &s)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /v1/stats: %d", code)
	}
	return s.batch(), err
}

// submit posts one job and records its ack.
func (g *loadgen) submit(ctx context.Context, j *jobRun) {
	spec := g.pool[j.arr.Spec]
	j.send = time.Now()
	g.tr.Add("loadgen.lag", j.span, "", j.sched, j.send)
	s := g.tr.Begin("http.submit", j.span, "")
	defer g.tr.End(s)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url+"/v1/jobs", bytes.NewReader(spec.Body))
	if err != nil {
		j.err = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		j.err = err.Error()
		return
	}
	defer resp.Body.Close()
	var doc jobDoc
	derr := json.NewDecoder(resp.Body).Decode(&doc)
	j.ack = time.Now()
	switch {
	case resp.StatusCode != http.StatusAccepted:
		j.err = fmt.Sprintf("POST /v1/jobs: %d %s", resp.StatusCode, doc.Error)
	case derr != nil:
		j.err = derr.Error()
	default:
		j.id, j.ackNode = doc.ID, doc.Node
	}
}

// poll checks one outstanding job and fetches its result once it is
// terminal. It reports whether the job is settled.
func (g *loadgen) poll(ctx context.Context, j *jobRun) bool {
	s := g.tr.Begin("http.status", j.span, "")
	var doc jobDoc
	code, err := g.getJSON(ctx, "/v1/jobs/"+j.id, &doc)
	g.tr.End(s)
	if err != nil || code != http.StatusOK || !terminal(doc.State) {
		return false
	}
	r := g.tr.Begin("http.result", j.span, "")
	t0 := time.Now()
	code, err = g.getJSON(ctx, "/v1/jobs/"+j.id+"/result", &j.doc)
	j.resultRTT = time.Since(t0)
	g.tr.End(r)
	if err != nil || code != http.StatusOK {
		j.err = fmt.Sprintf("GET result: %d %v", code, err)
	}
	return true
}

// runStream sends the schedule open-loop and polls every job to the end.
// It returns the batch counters at the start of every schedule block and
// at the end.
func (g *loadgen) runStream(ctx context.Context, sched []arrival, phase time.Duration, limit time.Duration) ([]service.BatchStats, error) {
	first, err := g.stats(ctx)
	if err != nil {
		return nil, err
	}
	start := time.Now().Add(20 * time.Millisecond)
	g.jobs = make([]*jobRun, len(sched))
	for i, a := range sched {
		j := &jobRun{arr: a, sched: start.Add(a.At)}
		j.span = g.tr.Add("job", 0, "", j.sched, j.sched)
		g.jobs[i] = j
	}

	var wg sync.WaitGroup
	block := phase / blocksPerPhase
	snaps := make([]service.BatchStats, 2*blocksPerPhase+1)
	snaps[0] = first
	wg.Add(1)
	go func() { // the block-boundary snapshots, off the send path
		defer wg.Done()
		for b := 1; b < 2*blocksPerPhase; b++ {
			if sleepCtx(ctx, time.Until(start.Add(time.Duration(b)*block))) != nil {
				return
			}
			snaps[b], _ = g.stats(ctx)
		}
	}()

	sent := make(chan int, len(sched)) // one slot per scheduled job: the sender never blocks
	sem := make(chan struct{}, 64)     // bounds the submits in flight
	wg.Add(1)
	go func() { // the sender; it closes sent once every submit returned
		defer wg.Done()
		var submits sync.WaitGroup
		defer close(sent)
		defer submits.Wait()
		for i, j := range g.jobs {
			if sleepCtx(ctx, time.Until(j.sched)) != nil {
				return
			}
			sem <- struct{}{}
			submits.Add(1)
			go func(i int, j *jobRun) {
				defer submits.Done()
				defer func() { <-sem }()
				g.submit(ctx, j)
				sent <- i
			}(i, j)
		}
	}()

	// The poller: every tick, check the acked jobs that are not settled
	// yet, one request per poll connection at a time.
	var outstanding []int
	sentDone := false
	deadline := start.Add(limit)
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
	drain:
		for !sentDone {
			select {
			case i, ok := <-sent:
				if !ok {
					sentDone = true
				} else if g.jobs[i].err == "" {
					outstanding = append(outstanding, i)
				}
			default:
				break drain
			}
		}
		if sentDone && len(outstanding) == 0 {
			break
		}
		if time.Now().After(deadline) {
			for _, i := range outstanding {
				g.jobs[i].err = "not finished before the run's time limit"
			}
			break
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			wg.Wait()
			return nil, ctx.Err()
		}
		done := make([]bool, len(outstanding))
		var pw sync.WaitGroup
		next := make(chan int)
		for w := 0; w < g.pollers; w++ {
			pw.Add(1)
			go func() {
				defer pw.Done()
				for k := range next {
					done[k] = g.poll(ctx, g.jobs[outstanding[k]])
				}
			}()
		}
		for k := range outstanding {
			next <- k
		}
		close(next)
		pw.Wait()
		kept := outstanding[:0]
		for k, i := range outstanding {
			if !done[k] {
				kept = append(kept, i)
			}
		}
		outstanding = kept
	}
	wg.Wait()
	var serr error
	snaps[2*blocksPerPhase], serr = g.stats(ctx)
	return snaps, serr
}

// soloResults solves every pool entry the schedule used in-process, one
// job at a time through a FIFO service.Manager (no batching, no WAL, no
// learn store): the reference each served job must match.
func soloResults(ctx context.Context, pool []streamSpec, used map[int]bool) (map[int]service.JobStatus, error) {
	m := service.New(service.Config{Workers: runtime.NumCPU()})
	defer m.Close()
	ids := map[int]string{}
	for i := range pool {
		if !used[i] {
			continue
		}
		spec, err := service.ParseSubmit(pool[i].Body)
		if err != nil {
			return nil, err
		}
		st, err := m.Submit(spec)
		if err != nil {
			return nil, err
		}
		ids[i] = st.ID
	}
	out := map[int]service.JobStatus{}
	for i, id := range ids {
		for {
			st, err := m.Status(id)
			if err != nil {
				return nil, err
			}
			if st.State.Terminal() {
				out[i] = st
				break
			}
			if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// boots is how many times a run boots the system; set-up is the median.
const boots = 9

// runService runs the serve or fleet workload: boot the system several
// times (set-up is the median; the last boot serves the run), send the two-phase
// stream, check every job against a solo in-process solve, and derive the
// metrics.
func runService(ctx context.Context, cfg runConfig, tr *Tracer, fleet bool) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	pool, err := makePool(cfg.seed)
	if err != nil {
		return nil, err
	}
	phase := time.Duration(cfg.seconds) * time.Second / 2
	sched := makeSchedule(cfg.seed, pool, phase)

	// The client holds at most nproc keep-alive connections: half carry
	// the submits, the rest the status polls and result reads, so a burst
	// of polls never holds a submit back.
	nproc := runtime.NumCPU()
	submitConns := max(1, nproc/2)
	pollConns := max(1, nproc-submitConns)
	newClient := func(conns int) (*http.Client, *http.Transport) {
		t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
		return &http.Client{Transport: t, Timeout: 60 * time.Second}, t
	}
	client, transport := newClient(submitConns)
	defer transport.CloseIdleConnections()
	pollClient, pollTransport := newClient(pollConns)
	defer pollTransport.CloseIdleConnections()

	var setups []float64
	var c *cluster
	for i := 0; i < boots; i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("boot%d", i))
		cl, setup, err := startCluster(ctx, cfg, client, fleet, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		if i < boots-1 {
			cl.stop()
			transport.CloseIdleConnections()
			continue
		}
		c = cl
	}
	defer c.stop()

	g := &loadgen{client: client, pollClient: pollClient, pollers: pollConns, url: c.front, tr: tr, pool: pool}
	limit := 2*phase + 60*time.Second
	snaps, err := g.runStream(ctx, sched, phase, limit)
	if err != nil {
		return nil, err
	}
	rss := c.peakRSSMB()
	c.stop()

	used := map[int]bool{}
	for _, a := range sched {
		used[a.Spec] = true
	}
	solo, err := soloResults(ctx, pool, used)
	if err != nil {
		return nil, fmt.Errorf("solo reference solves: %w", err)
	}

	m := out.metrics
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = rss
	var lat [2][]float64
	byClass := map[string][]float64{} // "<phase> <class>" -> latencies, for the stderr summary
	var lags, rtts, resRTTs, outside, queue, solve, unaccounted, wts []float64
	var sloMet int
	var chars float64
	var last time.Time
	start := g.jobs[0].sched // the stream start: the first job is due at offset 0
	// Each block's wall time runs from its start until its end or its last
	// job's finish, whichever is later: the heavy phase's wall time is the
	// sum over its blocks.
	block := phase / blocksPerPhase
	blockEnd := make([]time.Time, 2*blocksPerPhase)
	for b := range blockEnd {
		blockEnd[b] = start.Add(time.Duration(b+1) * block)
	}
	nodeJobs := map[string]int{}
	failovers := 0
	var portfolios []*jobRun
	for _, j := range g.jobs {
		out.attempted++
		lags = append(lags, ms(j.send.Sub(j.sched)))
		spec := pool[j.arr.Spec]
		if !checkJob(out, j, spec, solo[j.arr.Spec]) {
			continue
		}
		d := j.doc
		l := d.Finished.Sub(j.sched)
		lat[j.arr.Phase] = append(lat[j.arr.Phase], ms(l))
		key := []string{"light", "heavy"}[j.arr.Phase] + " " + spec.Class
		byClass[key] = append(byClass[key], ms(l))
		if j.arr.Phase == 1 && l <= sloLatency {
			sloMet++
		}
		chars += float64(spec.In.NumCharacters())
		if d.Finished.After(last) {
			last = d.Finished
		}
		if d.Finished.After(blockEnd[j.arr.Block]) {
			blockEnd[j.arr.Block] = d.Finished
		}
		wts = append(wts, float64(d.Result.Objective))
		rtts = append(rtts, ms(j.ack.Sub(j.send)))
		resRTTs = append(resRTTs, ms(j.resultRTT))
		outside = append(outside, ms(l-d.Finished.Sub(d.Submitted)))
		queue = append(queue, ms(d.Started.Sub(d.Submitted)))
		solve = append(solve, ms(d.Finished.Sub(d.Started)))
		if fleet {
			nodeJobs[d.Node]++
			if j.ackNode != "" && j.ackNode != d.Node {
				failovers++
			}
		}
		if spec.Class == classPortfolio {
			portfolios = append(portfolios, j)
		}
		if tr != nil {
			// The job span and its server-side children, from the job
			// document's stamps; its self time is the latency no layer
			// accounts for.
			tr.Finish(j.span, d.Finished, d.ID)
			if d.Submitted.After(j.ack) {
				// On fleet, a job the dispatcher acked before a node
				// accepted it waited in the dispatcher in between.
				tr.Add("dispatch.held", j.span, d.ID, j.ack, d.Submitted)
			}
			tr.Add("server.queue", j.span, d.ID, d.Submitted, d.Started)
			tr.Add("server.solve", j.span, d.ID, d.Started, d.Finished)
		}
	}
	if tr != nil {
		spans := tr.Spans()
		self := selfTimes(spans)
		for _, j := range g.jobs {
			if j.span != 0 && j.doc.Result != nil {
				unaccounted = append(unaccounted, ms(self[j.span]))
			}
		}
		for _, u := range unaccounted {
			if u > accountingToleranceMs {
				out.fail("a job's layer timings leave %.3f ms of its latency unaccounted (tolerance %.1f ms)", u, accountingToleranceMs)
				break
			}
		}
	}
	for _, k := range sortedKeys(byClass) {
		v := byClass[k]
		fmt.Fprintf(os.Stderr, "  %-16s %4d jobs  p50 %8.2f ms  p95 %8.2f ms  max %8.2f ms\n", k, len(v), percentile(v, 0.5), percentile(v, 0.95), percentile(v, 1))
	}
	if len(lat[0]) == 0 || len(lat[1]) == 0 {
		return nil, fmt.Errorf("a phase finished no job (%d failed of %d)", out.failed, out.attempted)
	}
	m["chars_per_s"] = chars / last.Sub(start).Seconds()
	m["writing_time"] = geomean(wts)
	m["light.p50_ms"] = percentile(lat[0], 0.50)
	m["light.p95_ms"] = percentile(lat[0], 0.95)
	m["heavy.p50_ms"] = percentile(lat[1], 0.50)
	m["heavy.p95_ms"] = percentile(lat[1], 0.95)
	var heavyWall time.Duration
	for b := 1; b < 2*blocksPerPhase; b += 2 {
		heavyWall += blockEnd[b].Sub(start.Add(time.Duration(b) * block))
	}
	m["heavy.goodput_per_s"] = float64(sloMet) / heavyWall.Seconds()
	m["ok_share"] = float64(out.attempted-out.failed) / float64(out.attempted)

	m["loadgen.late_p99_ms"] = percentile(lags, 0.99)
	m["loadgen.sent"] = float64(out.attempted)
	m["loadgen.ok"] = float64(out.attempted - out.failed)
	m["loadgen.failed"] = float64(out.failed)
	m["trace.unaccounted_ms"] = percentile(unaccounted, 0.99)
	// The client talks to the node on serve and to the dispatcher on
	// fleet; the pair not measured reads 0.
	front, other := "service", "dispatch"
	if fleet {
		front, other = other, front
	}
	m[front+".submit_rtt_ms"] = median(rtts)
	m[front+".outside_ms"] = median(outside)
	m[other+".submit_rtt_ms"] = 0
	m[other+".outside_ms"] = 0
	m["service.result_rtt_ms"] = median(resRTTs)
	m["service.queue_wait_p50_ms"] = percentile(queue, 0.50)
	m["service.queue_wait_p95_ms"] = percentile(queue, 0.95)
	m["service.solve_p50_ms"] = percentile(solve, 0.50)
	m["service.solve_p95_ms"] = percentile(solve, 0.95)
	// Scheduler counters per phase: the sum of its blocks' deltas. The
	// cohort maximum is cumulative, so a phase reports the largest maximum
	// reached during one of its blocks.
	for p, name := range []string{"light", "heavy"} {
		var d service.BatchStats
		for b := p; b < 2*blocksPerPhase; b += 2 {
			a, z := snaps[b], snaps[b+1]
			d.Cohorts += z.Cohorts - a.Cohorts
			d.BatchedJobs += z.BatchedJobs - a.BatchedJobs
			d.SoloJobs += z.SoloJobs - a.SoloJobs
			d.Overtakes += z.Overtakes - a.Overtakes
			d.AgedPops += z.AgedPops - a.AgedPops
			if z.MaxCohort > a.MaxCohort {
				d.MaxCohort = max(d.MaxCohort, z.MaxCohort)
			}
		}
		m[name+".batch.cohorts"] = float64(d.Cohorts)
		m[name+".batch.batched_share"] = float64(d.BatchedJobs) / math.Max(1, float64(d.BatchedJobs+d.SoloJobs))
		m[name+".batch.max_cohort"] = float64(d.MaxCohort)
		m[name+".batch.overtakes"] = float64(d.Overtakes)
		m[name+".batch.aged_pops"] = float64(d.AgedPops)
	}
	m["learn.saves"] = float64(len(portfolios))
	m["dispatch.node_share_max"] = 0
	m["dispatch.failovers"] = float64(failovers)
	if fleet {
		most, total := 0, 0
		for _, n := range nodeJobs {
			most = max(most, n)
			total += n
		}
		m["dispatch.node_share_max"] = float64(most) / (float64(total) / 2)
		if failovers != 0 {
			out.fail("%d jobs failed over to another node", failovers)
		}
	}
	if tr != nil {
		if err := probeLearnSave(cfg, tr, pool, portfolios, m); err != nil {
			return nil, err
		}
	} else {
		m["learn.save_ms"] = 0
	}
	return out, nil
}

// accountingToleranceMs bounds, per job, how much of the client latency
// may fall outside the layer spans (load generator lag, submit round
// trip, server queue wait and solve).
const accountingToleranceMs = 1.0

// checkJob checks a served job against its solo reference: done, same
// digest and writing time, and a plan that validates against the
// instance. It reports whether the job counts as ok.
func checkJob(out *outcome, j *jobRun, spec streamSpec, ref service.JobStatus) bool {
	d := j.doc
	switch {
	case j.err != "":
		out.fail("job %s (%s): %s", j.id, spec.Class, j.err)
	case d.State != "done" || d.Result == nil:
		out.fail("job %s (%s) ended %s: %s", j.id, spec.Class, d.State, d.Error)
	case d.Result.Digest != ref.Digest || ref.Result == nil || d.Result.Objective != ref.Result.Objective:
		out.fail("job %s (%s %s): digest %.12s objective %d, solo solve gives %.12s", j.id, spec.Class, spec.Solver, d.Result.Digest, d.Result.Objective, ref.Digest)
	case d.Result.Solution == nil:
		out.fail("job %s: result has no plan", j.id)
	default:
		if err := d.Result.Solution.Validate(spec.In); err != nil {
			out.fail("job %s: invalid plan: %v", j.id, err)
			return false
		}
		return true
	}
	return false
}

// probeLearnSave times Store.Save on a store holding the run's portfolio
// races, recorded and saved one race at a time as the server does.
func probeLearnSave(cfg runConfig, tr *Tracer, pool []streamSpec, races []*jobRun, m map[string]float64) error {
	st, err := eblow.OpenLearn(filepath.Join(cfg.work, "probe.learn.json"))
	if err != nil {
		return err
	}
	var times []float64
	for _, j := range races {
		res := j.doc.Result
		runs := make([]learn.RunOutcome, len(res.Runs))
		for i, r := range res.Runs {
			obj := r.Objective
			if !r.OK {
				obj = -1
			}
			runs[i] = learn.RunOutcome{Name: r.Name, Won: r.Name == res.Strategy, Objective: obj, Elapsed: time.Duration(r.ElapsedMs) * time.Millisecond, Failed: !r.OK}
		}
		st.Record(eblow.Fingerprint(pool[j.arr.Spec].In), runs)
		el, err := timeSpan(tr, "learn.Store.Save", st.Save)
		if err != nil {
			return err
		}
		times = append(times, ms(el))
	}
	m["learn.save_ms"] = median(times)
	return nil
}
