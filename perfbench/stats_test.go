package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 15}, {0.25, 20}, {0.5, 35}, {0.75, 40}, {1, 50}, {0.95, 48}, {0.1, 17},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same vectors.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{5, 7, 1}, [3]float64{1, 5, 7}},
		{[]float64{2.5, 3.5, 1.25, 8, 4, 4, 9.5, 0.5, 7, 6.25}, [3]float64{2.1875, 4, 7.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("iqrShare = %v, want 1", got)
	}
	if got := iqrShare([]float64{3, 1, 4, 1, 5, 9, 2, 6}); !near(got, 4.5/3.5) {
		t.Errorf("iqrShare = %v, want %v", got, 4.5/3.5)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean([]float64{10, 100, 1000}); !near(got, 100) {
		t.Errorf("geomean = %v, want 100", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "x_ms", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "improved"},
		{[]float64{101, 100, 100, 99, 101, 99, 100, 102, 100, 101}, "no worse"},
		{[]float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "worse"},
		{[]float64{60, 140, 70, 130, 100, 65, 135, 100, 75, 125}, "unresolved"},
	} {
		if got := judge(lower, parent, c.change).verdict; got != c.want {
			t.Errorf("judge(%v) = %s, want %s", c.change, got, c.want)
		}
	}
	higher := metricDef{Name: "x_per_s", Better: "higher", Bound: 0.1}
	if got := judge(higher, parent, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}).verdict; got != "worse" {
		t.Errorf("a lower throughput judged %s, want worse", got)
	}
}

func TestMs(t *testing.T) {
	if got := ms(1500 * time.Microsecond); !near(got, 1.5) {
		t.Errorf("ms = %v", got)
	}
}
