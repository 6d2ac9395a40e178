package main

import (
	"errors"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// workload starts a child process of itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// countMetrics are the per-layer metrics that must repeat exactly for a
// seed: counts the program returns, not times.
var countMetrics = map[string][]string{
	"reduce": {"mis.steps", "congest.rounds", "congest.bits", "cc.writes", "cc.bits", "cache.hit_ratio"},
	"serve":  {"mis.steps.dense", "mis.steps.sparse", "cache.private_hit_ratio", "cache.shared_hit_ratio", "serve.reject_share"},
	"suite":  {"lbgraph.hit_ratio", "congest.batched_instances"},
}

// TestSeedFixesInputsAndCounts runs short traced passes: the same seed
// must give the same fingerprint and the same counts, and another seed a
// different fingerprint (the suite's inputs are the fixed registered
// suite, so only its repeat is checked).
func TestSeedFixesInputsAndCounts(t *testing.T) {
	const dur = 300 * time.Millisecond
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.measure(1, dur, newTracer())
			if raceDetector && errors.Is(err, errOpenLoopInvalid) {
				t.Skipf("the race-instrumented server cannot keep up with the open loop: %v", err)
			}
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.measure(1, dur, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if a.fingerprint != b.fingerprint {
				t.Errorf("seed 1 gave fingerprints %s and %s", a.fingerprint, b.fingerprint)
			}
			for _, name := range countMetrics[w.name] {
				ma, ok := a.layers[name]
				if !ok {
					t.Errorf("no metric %s", name)
				}
				if mb := b.layers[name]; ma != mb {
					t.Errorf("%s: %v then %v for the same seed", name, ma, mb)
				}
			}
			for _, p := range []phase{a, b} {
				for i, op := range p.ops {
					if !op.ok || !op.optimal {
						t.Errorf("op %d: ok %v optimal %v", i, op.ok, op.optimal)
					}
				}
			}
			if w.name == "suite" {
				return
			}
			c, err := w.measure(2, dur, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.fingerprint == a.fingerprint {
				t.Errorf("seeds 1 and 2 share the fingerprint %s", a.fingerprint)
			}
		})
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i)
	}
	v, pct := tailOf(lat)
	if v != 89 || pct != 90 {
		t.Errorf("tail of 0..99 is %v at p%v, want 89 at p90", v, pct)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	root := tr.add("op", 0, 0, ms(0), ms(10))
	tr.add("a", 0, root, ms(1), ms(4))
	tr.add("b", 0, root, ms(3), ms(6)) // overlaps a
	for _, s := range tr.selfTime() {
		if s.Name == "op" && s.SelfMS != 5 {
			t.Errorf("op self time %v ms, want 5", s.SelfMS)
		}
	}
}
