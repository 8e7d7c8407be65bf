package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func TestStreamDeterministicPerSeed(t *testing.T) {
	phase := 2 * time.Second
	gen := func(seed int64) ([]streamSpec, []arrival) {
		pool, err := makePool(seed)
		if err != nil {
			t.Fatal(err)
		}
		return pool, makeSchedule(seed, pool, phase)
	}
	p1, s1 := gen(7)
	p2, s2 := gen(7)
	if len(p1) != len(p2) {
		t.Fatalf("pool sizes differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if !bytes.Equal(p1[i].Body, p2[i].Body) || p1[i].Class != p2[i].Class {
			t.Fatalf("pool entry %d differs between two generations from one seed", i)
		}
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("schedules differ between two generations from one seed")
	}
	p3, s3 := gen(8)
	same := 0
	for i := range p1 {
		if bytes.Equal(p1[i].Body, p3[i].Body) {
			same++
		}
	}
	if same == len(p1) && reflect.DeepEqual(s1, s3) {
		t.Fatal("seeds 7 and 8 generated the same stream")
	}
}

func TestScheduleMix(t *testing.T) {
	pool, err := makePool(3)
	if err != nil {
		t.Fatal(err)
	}
	sched := makeSchedule(3, pool, 4*time.Second)
	count := map[string]int{}
	var phases [2]int
	for i, a := range sched {
		count[pool[a.Spec].Class]++
		phases[a.Phase]++
		if i > 0 && a.At < sched[i-1].At {
			t.Fatalf("arrival %d is scheduled before arrival %d", i, i-1)
		}
	}
	if phases[0] == 0 || phases[1] <= phases[0] {
		t.Errorf("phase sizes %v: the heavy phase must send more than the light one", phases)
	}
	n := len(sched)
	for class, per40 := range map[string]int{classBlocker: 3, classMedium: 4, classPortfolio: 3, classTiny2D: 3, classTiny: 27} {
		want := float64(n) * float64(per40) / 40
		if got := float64(count[class]); got < want-float64(per40) || got > want+float64(per40) {
			t.Errorf("%s jobs: %v of %d, want about %v", class, got, n, want)
		}
	}
	for _, s := range pool {
		if s.Class == classBlocker && s.In.NumCharacters() <= 400 {
			t.Errorf("blocker with %d characters fits a cohort (cap 400)", s.In.NumCharacters())
		}
	}
}
