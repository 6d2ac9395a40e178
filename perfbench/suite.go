package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"congestlb"
)

// The suite workload runs the whole registered experiment suite cold, as
// a cmd/experiments user does: each op is a fresh child process that
// builds a Lab and calls RunExperiments once, so no process-wide
// pre-sizing or cache carries over between ops.
const (
	suiteSLOMS    = 2000
	suiteDeadline = 60 * time.Second
)

// suiteLayerIDs are the experiments timed one by one in a traced run;
// together they are most of the jobs-1 suite.
var suiteLayerIDs = []string{"scaling", "theorem5", "cutsize", "codes", "upperbounds"}

// suiteReport is what a suite child prints after its run.
type suiteReport struct {
	Experiments int      `json:"experiments"`
	OK          int      `json:"ok"`
	Failed      int      `json:"failed"`
	Cancelled   int      `json:"cancelled"`
	Degraded    uint64   `json:"degraded_solves"`
	LBHits      uint64   `json:"lbgraph_hits"`
	LBMisses    uint64   `json:"lbgraph_misses"`
	Batched     int64    `json:"batched_instances"`
	SolveHits   uint64   `json:"solve_hits"`
	SolveMisses uint64   `json:"solve_misses"`
	StepsSolved int64    `json:"steps_solved"`
	RunMS       float64  `json:"run_ms"`
	AllocBytes  uint64   `json:"alloc_bytes"`
	PerID       []idTime `json:"per_id,omitempty"`
}

// idTime is one experiment ID's call in a split run, relative to the
// moment the child reported ready.
type idTime struct {
	ID      string  `json:"id"`
	StartMS float64 `json:"start_ms"`
	MS      float64 `json:"ms"`
}

func (r *suiteReport) add(env congestlb.ExperimentEnvelope) {
	r.Experiments += len(env.Experiments)
	r.OK += env.OK
	r.Failed += env.Failed
	r.Cancelled += env.Cancelled
	if env.Failures != nil {
		r.Degraded += env.Failures.DegradedSolves
	}
	r.LBHits += env.LBGraph.Hits
	r.LBMisses += env.LBGraph.Misses
	r.Batched += env.Batch.BatchedInstances
	r.SolveHits += env.Cache.Hits
	r.SolveMisses += env.Cache.Misses
	r.StepsSolved += env.Cache.StepsSolved
}

// check is the suite op's output check: every experiment ran and passed.
func (r suiteReport) check() error {
	want := len(congestlb.AllExperiments())
	if r.Experiments != want || r.OK != want || r.Failed != 0 || r.Cancelled != 0 {
		return fmt.Errorf("suite: %d experiments, %d ok, %d failed, %d cancelled; want %d ok",
			r.Experiments, r.OK, r.Failed, r.Cancelled, want)
	}
	return nil
}

// counts is the part of a report that must repeat exactly.
func (r suiteReport) counts() string {
	return fmt.Sprintf("experiments=%d ok=%d failed=%d cancelled=%d degraded=%d lbgraph=%d/%d batched=%d solve=%d/%d steps=%d",
		r.Experiments, r.OK, r.Failed, r.Cancelled, r.Degraded, r.LBHits, r.LBMisses, r.Batched,
		r.SolveHits, r.SolveMisses, r.StepsSolved)
}

// childSuite is the child side of one suite op. It reports "ready" once
// its Lab exists, then runs the suite: in one call at the given pool
// size, or (split) one call per experiment ID.
func childSuite(jobs int, split bool, stdout io.Writer) error {
	lab, err := congestlb.New(congestlb.WithJobs(jobs), congestlb.WithSolverWorkers(1))
	if err != nil {
		return err
	}
	defer lab.Close()
	if _, err := fmt.Fprintln(stdout, "ready"); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), suiteDeadline)
	defer cancel()
	var rep suiteReport
	start := time.Now()
	if split {
		for _, e := range congestlb.AllExperiments() {
			t0 := time.Now()
			env, _ := lab.RunExperiments(ctx, []string{e.ID}, io.Discard) // failures are in env
			rep.PerID = append(rep.PerID, idTime{e.ID, float64(t0.Sub(start)) / 1e6, float64(time.Since(t0)) / 1e6})
			rep.add(env)
		}
	} else {
		env, _ := lab.RunExperiments(ctx, nil, io.Discard) // failures are in env
		rep.add(env)
	}
	rep.RunMS = float64(time.Since(start)) / 1e6
	rep.AllocBytes = totalAlloc()
	return json.NewEncoder(stdout).Encode(rep)
}

// suiteOp is one suite op as the parent sees it.
type suiteOp struct {
	rep                suiteReport
	start, ready, done time.Time // process start, child's Lab built, result read
	rssMB              float64
}

func (op suiteOp) setup() time.Duration   { return op.ready.Sub(op.start) }
func (op suiteOp) latency() time.Duration { return op.done.Sub(op.start) }

func runSuiteChild(jobs int, split bool) (suiteOp, error) {
	args := []string{"--jobs", fmt.Sprint(jobs)}
	if split {
		args = append(args, "--split")
	}
	c, err := startChild("suite", 0, args...)
	if err != nil {
		return suiteOp{}, err
	}
	op := suiteOp{start: c.start}
	ready, readyAt, err1 := c.line()
	out, doneAt, err2 := c.line()
	op.rssMB, err = c.wait()
	switch {
	case err != nil:
		return op, err
	case err1 != nil || string(ready) != "ready\n":
		return op, fmt.Errorf("suite child: want ready, got %q (%v)", ready, err1)
	case err2 != nil:
		return op, fmt.Errorf("suite child: reading result: %w", err2)
	}
	if err := json.Unmarshal(out, &op.rep); err != nil {
		return op, fmt.Errorf("suite child output: %w", err)
	}
	op.ready, op.done = readyAt, doneAt
	return op, nil
}

// measureSuite runs cold suite ops back to back (one client) for dur.
// A traced op adds a second child that runs the suite at one job, one
// experiment ID per call, for the per-experiment times and the speedup.
func measureSuite(_ int64, dur time.Duration, tr *tracer) (phase, error) {
	jobs := runtime.NumCPU()
	if _, err := runSuiteChild(jobs, false); err != nil { // warm-up, untimed
		return phase{}, err
	}
	var p phase
	var rss, alloc, speedup []float64
	perID := map[string][]float64{}
	var first suiteReport
	start := time.Now()
	for i := 0; time.Since(start) < dur || len(p.ops) < 1; i++ {
		op, err := runSuiteChild(jobs, false)
		if err != nil {
			return p, err
		}
		if i == 0 {
			first = op.rep
		}
		ok := suiteOK(i, op.rep, first)
		p.ops = append(p.ops, opRecord{latency: op.latency(), ok: ok, optimal: op.rep.Cancelled == 0 && op.rep.Degraded == 0})
		p.setup = append(p.setup, op.setup())
		rss = append(rss, op.rssMB)
		alloc = append(alloc, float64(op.rep.AllocBytes))
		if tr == nil {
			continue
		}
		root := tr.add("suite.op", i, 0, op.start, op.done)
		tr.add("process.setup", i, root, op.start, op.ready)
		tr.add("Lab.RunExperiments", i, root, op.ready, op.done)
		split, err := runSuiteChild(1, true)
		if err != nil {
			return p, err
		}
		if err := split.rep.check(); err != nil {
			p.ops[len(p.ops)-1].ok = false
			fmt.Fprintf(os.Stderr, "suite op %d, one job per call: %v\n", i, err)
		}
		splitRoot := tr.add("suite.jobs1", i, 0, split.start, split.done)
		var sum float64
		for _, t := range split.rep.PerID {
			at := split.ready.Add(time.Duration(t.StartMS * 1e6))
			tr.add("experiments."+t.ID, i, splitRoot, at, at.Add(time.Duration(t.MS*1e6)))
			sum += t.MS
			perID[t.ID] = append(perID[t.ID], t.MS)
		}
		speedup = append(speedup, sum/op.rep.RunMS)
	}
	p.elapsed = time.Since(start)
	p.allocPerOp = medianOf(alloc)
	p.peakRSSMB = medianOf(rss)
	h := sha256.New()
	fmt.Fprintf(h, "suite ids=%v\n%s\n", experimentIDs(), first.counts())
	p.fingerprint = hex.EncodeToString(h.Sum(nil))
	p.notes = map[string]float64{"max_op_over_deadline": maxLatency(p.ops).Seconds() / suiteDeadline.Seconds()}
	if tr != nil {
		p.layers = map[string]metric{
			"experiments.speedup":       {medianOf(speedup), "ratio"},
			"lbgraph.hit_ratio":         {ratio(first.LBHits, first.LBHits+first.LBMisses), "ratio"},
			"congest.batched_instances": {float64(first.Batched), "count"},
		}
		for _, id := range suiteLayerIDs {
			p.layers["experiments."+id+"_ms"] = metric{medianOf(perID[id]), "ms"}
		}
	}
	return p, nil
}

// suiteOK checks op i's report: every experiment passed, and its counts
// repeat those of the pass's first op exactly.
func suiteOK(i int, rep, first suiteReport) bool {
	if err := rep.check(); err != nil {
		fmt.Fprintf(os.Stderr, "suite op %d: %v\n", i, err)
		return false
	}
	if rep.counts() != first.counts() {
		fmt.Fprintf(os.Stderr, "suite op %d: counts %s differ from the first op's %s\n", i, rep.counts(), first.counts())
		return false
	}
	return true
}

func experimentIDs() []string {
	var ids []string
	for _, e := range congestlb.AllExperiments() {
		ids = append(ids, e.ID)
	}
	return ids
}
