// HTTP/JSON surface of the job service, mounted by cmd/eblowd:
//
//	GET    /v1/solvers            registered strategies
//	GET    /v1/stats              queue depth, per-state job counts, batch counters
//	GET    /v1/learn              learned-scheduling statistics snapshot
//	POST   /v1/jobs               submit a job (benchmark name or inline instance)
//	GET    /v1/jobs               list jobs in submission order
//	GET    /v1/jobs/{id}          job status (compact result summary)
//	GET    /v1/jobs/{id}/result   full result including the stencil plan
//	GET    /v1/jobs/{id}/events   NDJSON progress stream until terminal
//	DELETE /v1/jobs/{id}          cancel
//
// The handler itself is unauthenticated; cmd/eblowd wraps it with
// Keyring.Wrap when started with -auth-keys, which adds the 401/403/429
// auth semantics documented in auth.go.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"eblow"
)

// NewHandler mounts the service API for the manager.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/solvers", func(w http.ResponseWriter, r *http.Request) {
		type info struct {
			Name   string `json:"name"`
			Doc    string `json:"doc"`
			OneD   bool   `json:"oneD"`
			TwoD   bool   `json:"twoD"`
			Racing bool   `json:"racing"`
		}
		var out []info
		for _, e := range eblow.SolverInfos() {
			out = append(out, info{Name: e.Name, Doc: e.Doc, OneD: e.OneD, TwoD: e.TwoD, Racing: e.Racing})
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Stats())
	})
	mux.HandleFunc("GET /v1/learn", func(w http.ResponseWriter, r *http.Request) {
		store := m.Learn()
		if store == nil {
			writeError(w, http.StatusNotFound, errors.New("service: learned scheduling is disabled (start the server with -learn-path)"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"path":   store.Path(),
			"shapes": store.Snapshot(),
		})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		body, code, err := ReadSubmitBody(w, r)
		if err != nil {
			writeError(w, code, fmt.Errorf("service: reading request: %w", err))
			return
		}
		spec, err := ParseSubmit(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if key := KeyFromContext(r.Context()); key != nil {
			spec.Key = key.Name
			spec.KeyPending = key.MaxPending
		}
		status, err := m.Submit(spec)
		if err != nil {
			code := http.StatusBadRequest
			switch {
			case errors.Is(err, ErrClosed):
				code = http.StatusServiceUnavailable
			case errors.Is(err, ErrQueueFull), errors.Is(err, ErrKeyQuota):
				// Backpressure, not failure: the client should retry later.
				code = http.StatusTooManyRequests
			case errors.Is(err, ErrNotDurable):
				// The job is queued but its WAL record could not be synced;
				// the ack must not promise durability it cannot keep.
				code = http.StatusInternalServerError
			}
			writeError(w, code, err)
			return
		}
		writeJSON(w, http.StatusAccepted, jobJSON(status, false))
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		statuses := m.List()
		out := make([]map[string]any, len(statuses))
		for i, s := range statuses {
			out[i] = jobJSON(s, false)
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		status, err := m.Status(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, jobJSON(status, false))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		status, err := m.Status(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		if !status.State.Terminal() {
			writeError(w, http.StatusConflict, fmt.Errorf("service: job %s is %s, result not ready", status.ID, status.State))
			return
		}
		writeJSON(w, http.StatusOK, jobJSON(status, true))
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		status, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, jobJSON(status, false))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		events, err := m.Events(r.Context(), r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		for e := range events {
			if err := enc.Encode(e); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	})
	return mux
}

// Connection timeouts of the servers NewServer builds. A client that stalls
// while sending its request headers or body is cut off, and an idle
// keep-alive connection is closed. ReadTimeout ends once the request is
// read, and there is no write timeout, so an events stream stays open for as
// long as its job runs.
const (
	ReadHeaderTimeout = 10 * time.Second
	ReadTimeout       = 60 * time.Second
	IdleTimeout       = 120 * time.Second
)

// NewServer returns the http.Server that serves h, on a node and on the
// dispatcher alike.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		IdleTimeout:       IdleTimeout,
	}
}

// submitRequest is the POST /v1/jobs body: exactly one of Benchmark or
// Instance names the problem; Solver and Params pick the strategy.
type submitRequest struct {
	Benchmark string          `json:"benchmark,omitempty"`
	Instance  json.RawMessage `json:"instance,omitempty"`
	Solver    string          `json:"solver,omitempty"`
	Label     string          `json:"label,omitempty"`
	Params    wireParams      `json:"params"`
}

// wireParams is the JSON shape of eblow.Params (deadline as a Go duration
// string such as "30s").
type wireParams struct {
	Workers    int      `json:"workers,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	Deadline   string   `json:"deadline,omitempty"`
	Restarts   int      `json:"restarts,omitempty"`
	Strategies []string `json:"strategies,omitempty"`
}

// MaxSubmitBytes caps a POST /v1/jobs body, on a node and on the
// dispatcher alike. The largest paper instance, 1M-5, encodes to about
// 1.4 MB inline.
const MaxSubmitBytes = 16 << 20

// ReadSubmitBody reads a POST /v1/jobs body of at most MaxSubmitBytes. On
// error it also returns the status to answer with: 413 for an oversized
// body, 400 otherwise.
func ReadSubmitBody(w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxSubmitBytes))
	if err != nil {
		if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge, err
		}
		return nil, http.StatusBadRequest, err
	}
	return body, 0, nil
}

// ParseSubmit validates one POST /v1/jobs body and resolves it to a job
// spec, exactly as the HTTP handler would. The dispatcher front-end uses it
// to validate submissions before routing, so a fleet rejects a bad request
// identically to a single node — and never burns a WAL record or a backend
// round-trip on one.
func ParseSubmit(body []byte) (JobSpec, error) {
	var req submitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return JobSpec{}, fmt.Errorf("service: decoding request: %w", err)
	}
	var in *eblow.Instance
	var err error
	switch {
	case req.Benchmark != "" && len(req.Instance) > 0:
		return JobSpec{}, errors.New("service: use either benchmark or instance, not both")
	case req.Benchmark != "":
		if in, err = eblow.Benchmark(req.Benchmark); err != nil {
			return JobSpec{}, err
		}
	case len(req.Instance) > 0:
		// DecodeInstance validates, so the service never round-trips
		// through temp files to sanity-check a submitted instance.
		if in, err = eblow.DecodeInstance(bytes.NewReader(req.Instance)); err != nil {
			return JobSpec{}, err
		}
	default:
		return JobSpec{}, errors.New("service: one of benchmark or instance is required")
	}
	p, err := req.Params.params()
	if err != nil {
		return JobSpec{}, err
	}
	return JobSpec{Instance: in, Solver: req.Solver, Params: p, Label: req.Label}, nil
}

// maxWireSeed caps submitted seeds: racing entrants add per-strategy
// offsets to the seed, and the cap leaves headroom so the sub-seed
// derivation can never overflow int64.
const maxWireSeed = int64(1) << 62

// params validates the wire fields and converts them to solver parameters.
// Negative or overflow-prone values are rejected here, at decode time, with
// a field-naming error — they would otherwise queue a doomed (negative
// deadline: instant expiry) or nonsensical (negative workers/restarts/seed)
// job that only fails once a worker picks it up.
func (wp wireParams) params() (eblow.Params, error) {
	if wp.Workers < 0 {
		return eblow.Params{}, fmt.Errorf("service: params.workers must be >= 0, got %d", wp.Workers)
	}
	if wp.Restarts < 0 {
		return eblow.Params{}, fmt.Errorf("service: params.restarts must be >= 0, got %d", wp.Restarts)
	}
	if wp.Seed < 0 || wp.Seed >= maxWireSeed {
		return eblow.Params{}, fmt.Errorf("service: params.seed must be in [0, 2^62), got %d", wp.Seed)
	}
	p := eblow.Params{
		Workers:    wp.Workers,
		Seed:       wp.Seed,
		Restarts:   wp.Restarts,
		Strategies: wp.Strategies,
	}
	if wp.Deadline != "" {
		d, err := time.ParseDuration(wp.Deadline)
		if err != nil {
			return eblow.Params{}, fmt.Errorf("service: bad params.deadline: %w", err)
		}
		if d <= 0 {
			return eblow.Params{}, fmt.Errorf("service: params.deadline must be positive, got %s", wp.Deadline)
		}
		p.Deadline = d
	}
	return p, nil
}

// jobJSON renders a status for the wire; full additionally inlines the
// stencil plan (solutions are big, so the compact form carries a summary
// only).
func jobJSON(s JobStatus, full bool) map[string]any {
	out := map[string]any{
		"id":        s.ID,
		"solver":    s.Solver,
		"instance":  s.Instance,
		"kind":      s.Kind.String(),
		"state":     string(s.State),
		"submitted": s.Submitted,
	}
	if s.Label != "" {
		out["label"] = s.Label
	}
	if s.Key != "" {
		out["key"] = s.Key
	}
	if s.Replayed {
		out["replayed"] = true
	}
	if !s.Started.IsZero() {
		out["started"] = s.Started
	}
	if !s.Finished.IsZero() {
		out["finished"] = s.Finished
	}
	if s.Err != nil {
		out["error"] = s.Err.Error()
	}
	if s.Result != nil {
		res := map[string]any{
			"strategy":  s.Result.Strategy,
			"objective": s.Result.Objective,
			"feasible":  s.Result.Feasible,
			"elapsedMs": s.Result.Elapsed.Milliseconds(),
		}
		if s.Result.Solution != nil {
			// Guarded: a cancelled or deadline-expired job can carry a
			// partial Result whose Solution is nil, and a terminal record
			// replayed from the WAL never has the plan — only the digest.
			res["selected"] = s.Result.Solution.NumSelected()
		}
		if s.Digest != "" {
			res["digest"] = s.Digest
		}
		if len(s.Result.Runs) > 0 {
			runs := make([]map[string]any, len(s.Result.Runs))
			for i, r := range s.Result.Runs {
				rj := map[string]any{"name": r.Name, "elapsedMs": r.Elapsed.Milliseconds(), "ok": r.Err == nil}
				if r.Err != nil {
					rj["error"] = r.Err.Error()
				} else if r.Solution != nil {
					rj["objective"] = r.Solution.WritingTime
				}
				runs[i] = rj
			}
			res["runs"] = runs
		}
		if full {
			res["solution"] = s.Result.Solution
		}
		out["result"] = res
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
