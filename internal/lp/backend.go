package lp

import (
	"fmt"
	"sort"
	"sync"
)

// Backend is one LP solver implementation. Solve must be deterministic —
// the same problem and warm basis always produce the same Result — and
// safe for concurrent use on distinct Problems. One Problem is never
// solved from two goroutines at once, so a backend may cache per-Problem
// state (the sparse backend keeps its simplex workspace there) as long as
// the cache never changes a result. Backends that do not support warm
// starts must ignore the warm argument and solve cold.
type Backend interface {
	Name() string
	Solve(p *Problem, warm *Basis) (*Result, error)
}

// backendRegistry holds the registered backends and the default choice.
type backendRegistry struct {
	mu sync.RWMutex
	// byName maps backend name to implementation.
	// guarded by mu — RegisterBackend writes, lookups read.
	byName map[string]Backend
	// def is the name of the default backend used by Solve/SolveWarm.
	// guarded by mu — SetDefaultBackend writes, defaultBackend reads.
	def string
}

var registry = &backendRegistry{
	byName: map[string]Backend{
		"sparse": sparseBackend{},
		"dense":  denseBackend{},
	},
	def: "sparse",
}

// RegisterBackend adds a backend to the registry. It panics on an empty
// or duplicate name; registration is an init-time affair.
func RegisterBackend(b Backend) {
	name := b.Name()
	if name == "" {
		panic("lp: backend with empty name")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[name]; dup {
		panic(fmt.Sprintf("lp: duplicate backend %q", name))
	}
	registry.byName[name] = b
}

// Backends returns the registered backend names in sorted order.
func Backends() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	names := make([]string, 0, len(registry.byName))
	for name := range registry.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LookupBackend returns the backend registered under name.
func LookupBackend(name string) (Backend, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	b, ok := registry.byName[name]
	return b, ok
}

// SetDefaultBackend switches the backend used by Solve and SolveWarm.
func SetDefaultBackend(name string) error {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, ok := registry.byName[name]; !ok {
		return fmt.Errorf("lp: unknown backend %q", name)
	}
	registry.def = name
	return nil
}

// DefaultBackendName returns the name of the current default backend.
func DefaultBackendName() string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return registry.def
}

func defaultBackend() Backend {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return registry.byName[registry.def]
}

// sparseBackend is the revised simplex in sparse.go: presolve on cold
// solves, dual-simplex warm starts, Result.Basis populated.
type sparseBackend struct{}

func (sparseBackend) Name() string { return "sparse" }

func (sparseBackend) Solve(p *Problem, warm *Basis) (*Result, error) {
	if warm != nil {
		res, basis, err := solveSparse(p, warm)
		if err != nil {
			return nil, err
		}
		res.Basis = basis
		return res, nil
	}
	return solveSparseCold(p)
}

// denseBackend is the original two-phase tableau simplex, kept as the
// property-test oracle. It has no warm-start support.
type denseBackend struct{}

func (denseBackend) Name() string { return "dense" }

func (denseBackend) Solve(p *Problem, _ *Basis) (*Result, error) {
	return solveDense(p)
}
