package main

import (
	"testing"
	"time"
)

func span(id, parent int, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	// job [0,100] has children lag [0,10], submit [10,30], queue [25,60]
	// (overlapping submit), solve [60,90], and a poll [95,120] that runs
	// past the job's end and is clipped. submit has a grandchild [12,20].
	spans := []Span{
		span(1, 0, "job", 0, 100),
		span(2, 1, "loadgen.lag", 0, 10),
		span(3, 1, "http.submit", 10, 30),
		span(4, 1, "server.queue", 25, 60),
		span(5, 1, "server.solve", 60, 90),
		span(6, 1, "http.status", 95, 120),
		span(7, 3, "inner", 12, 20),
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - (90 + 5), // [0,90] and [95,100] covered
		2: 10,
		3: 20 - 8,
		4: 35,
		5: 30,
		6: 25,
		7: 8,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	byName := selfByName(append(spans, span(8, 0, "job", 200, 210)))
	if byName["job"] != 5+10 {
		t.Errorf("job self time summed over spans = %v, want 15", byName["job"])
	}
}

func TestTracer(t *testing.T) {
	var none *Tracer
	if id := none.Begin("x", 0, ""); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	none.End(0)
	tr := newTracer()
	a := tr.Begin("a", 0, "j1")
	b := tr.Begin("b", a, "j1")
	tr.End(b)
	open := tr.Begin("open", 0, "")
	tr.End(a)
	t0 := time.Now()
	c := tr.Add("c", a, "", t0, t0)
	tr.Finish(c, t0.Add(time.Millisecond), "j2")
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d closed spans, want 3 (the open one is left out): %+v", len(spans), spans)
	}
	for _, s := range spans {
		if s.ID == open {
			t.Errorf("open span %d reported", open)
		}
		if s.Name == "c" && (s.Dur() != time.Millisecond || s.Job != "j2") {
			t.Errorf("finished span = %+v", s)
		}
	}
}
