package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"runtime"
	"time"

	"congestlb"
)

// The reduce workload times Lab.RunReduction (GossipExact on the
// sequential engine plus the Theorem 5 blackboard) on one long-lived Lab,
// one client, fresh promise inputs every op.
const (
	reduceSLOMS    = 200
	reduceDeadline = 5 * time.Second
	// reduceCountedOps is the op prefix every pass runs, whatever its
	// length, so the fingerprint and the per-layer counts repeat exactly.
	reduceCountedOps = 40
	// reduceDensity is the share of input positions set to 1.
	reduceDensity = 0.4
)

// reduceClass is one instance shape of the reduce workload.
type reduceClass struct {
	family string
	params congestlb.Params
}

// reduceClasses are connected instances of n = 36..54 with minimum
// degree at least 6, in op order: each large class is followed by a
// smaller one, so ops form one continuous cost range, not clusters.
var reduceClasses = []reduceClass{
	{"unweighted", congestlb.Params{T: 2, Alpha: 1, Ell: 3}}, // n=54
	{"linear", congestlb.Params{T: 3, Alpha: 1, Ell: 2}},     // n=36
	{"linear", congestlb.Params{T: 2, Alpha: 1, Ell: 3}},     // n=48
	{"unweighted", congestlb.Params{T: 3, Alpha: 1, Ell: 2}}, // n=36
	{"quadratic", congestlb.Params{T: 2, Alpha: 1, Ell: 2}},  // n=48
}

// smallestReduceClass indexes the class whose allocation is traced.
const smallestReduceClass = 1

func newFamily(name string, p congestlb.Params) (congestlb.Family, error) {
	switch name {
	case "linear":
		return congestlb.NewLinear(p)
	case "unweighted":
		return congestlb.NewUnweightedLinear(p)
	case "quadratic":
		return congestlb.NewQuadratic(p)
	}
	return nil, fmt.Errorf("unknown family %q", name)
}

func reduceFamilies() ([]congestlb.Family, error) {
	fams := make([]congestlb.Family, len(reduceClasses))
	for i, c := range reduceClasses {
		f, err := newFamily(c.family, c.params)
		if err != nil {
			return nil, err
		}
		fams[i] = f
	}
	return fams, nil
}

// reduceOp is one generated reduction.
type reduceOp struct {
	class    int
	fam      congestlb.Family
	in       congestlb.Inputs
	disjoint bool
	cfg      congestlb.CongestConfig
}

// reduceOpAt generates op i of a seed's stream. It depends on (seed, i)
// only, so every pass over a seed sees the same ops in the same order.
// Each class alternates between the two promise answers.
func reduceOpAt(fams []congestlb.Family, seed int64, i int) (reduceOp, error) {
	c := i % len(fams)
	fam := fams[c]
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	op := reduceOp{class: c, fam: fam, disjoint: (i/len(fams))%2 == 0, cfg: congestlb.CongestConfig{Seed: int64(i)}}
	var err error
	if op.disjoint {
		op.in, err = congestlb.RandomPairwiseDisjoint(fam.InputBits(), fam.Players(), reduceDensity, rng)
	} else {
		op.in, _, err = congestlb.RandomUniquelyIntersecting(fam.InputBits(), fam.Players(), reduceDensity, rng)
	}
	return op, err
}

// warmupSeed derives the stream warm-up ops come from, disjoint from
// the measured stream.
func warmupSeed(seed int64) int64 { return ^seed }

func reduceCheck(rep congestlb.SimulationReport, err error) error {
	switch {
	case err != nil:
		return err
	case !rep.Correct():
		return fmt.Errorf("decision %v, truth %v", rep.Decision, rep.Truth)
	case !rep.AccountingHolds():
		return fmt.Errorf("blackboard bits %d exceed the bound %d", rep.BlackboardBits, rep.AccountingBound)
	}
	return nil
}

func newReduceLab() (*congestlb.Lab, error) {
	return congestlb.New(congestlb.WithSolverWorkers(1), congestlb.WithJobs(runtime.NumCPU()))
}

// startReduce is the workload's program set-up: a Lab plus one untimed
// warm-up op per class, which settles the process's pre-sizing.
func startReduce(seed int64, fams []congestlb.Family) (*congestlb.Lab, error) {
	lab, err := newReduceLab()
	if err != nil {
		return nil, err
	}
	for c := range fams {
		op, err := reduceOpAt(fams, warmupSeed(seed), c)
		if err == nil {
			err = reduceCheck(runReduction(lab, op))
		}
		if err != nil {
			lab.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return lab, nil
}

func runReduction(lab *congestlb.Lab, op reduceOp) (congestlb.SimulationReport, error) {
	ctx, cancel := context.WithTimeout(context.Background(), reduceDeadline)
	defer cancel()
	return lab.RunReduction(ctx, op.fam, op.in, op.cfg)
}

// setupReduce times one set-up, excluding input generation.
func setupReduce(seed int64) (time.Duration, error) {
	fams, err := reduceFamilies()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	lab, err := startReduce(seed, fams)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	return d, lab.Close()
}

// reduceCounts are the per-layer counts of the counted prefix.
type reduceCounts struct {
	steps, rounds, congestBits, ccWrites, ccBits int64
	hits, misses                                 uint64
}

// measureReduce runs reductions back to back for dur, and at least the
// counted prefix. A traced op times each layer's public call before the
// reduction itself: the build and the exact solve on a second Lab (so
// the measured Lab's caches stay as cold as in an untraced op) and a
// bare GossipExact network run.
func measureReduce(seed int64, dur time.Duration, tr *tracer) (phase, error) {
	fams, err := reduceFamilies()
	if err != nil {
		return phase{}, err
	}
	lab, err := startReduce(seed, fams)
	if err != nil {
		return phase{}, err
	}
	defer lab.Close()
	var probe *congestlb.Lab
	if tr != nil {
		if probe, err = newReduceLab(); err != nil {
			return phase{}, err
		}
		defer probe.Close()
	}
	var p phase
	var counts reduceCounts
	var smallAlloc []float64
	fp := sha256.New()
	rss, err := newRSSWindows(rssWindow)
	if err != nil {
		return phase{}, err
	}
	alloc0 := totalAlloc()
	start := time.Now()
	for i := 0; time.Since(start) < dur || i < reduceCountedOps; i++ {
		op, err := reduceOpAt(fams, seed, i)
		if err != nil {
			return p, err
		}
		var rep congestlb.SimulationReport
		var rec opRecord
		if tr == nil {
			t0 := time.Now()
			rep, err = runReduction(lab, op)
			rec.latency = time.Since(t0)
		} else {
			var c reduceCounts
			var alloc float64
			rep, rec.latency, c, alloc, err = tracedReduce(tr, i, lab, probe, op)
			if i < reduceCountedOps {
				counts.add(c)
			}
			if op.class == smallestReduceClass {
				smallAlloc = append(smallAlloc, alloc)
			}
		}
		if cerr := reduceCheck(rep, err); cerr != nil {
			fmt.Fprintf(os.Stderr, "reduce op %d (%s %v): %v\n", i, op.fam.Name(), op.class, cerr)
		} else {
			rec.ok = true
		}
		rec.optimal = !cut(err)
		if i < reduceCountedOps {
			writeReduceOp(fp, i, op, rep)
		}
		p.ops = append(p.ops, rec)
		if err := rss.tick(); err != nil {
			return p, err
		}
	}
	p.elapsed = time.Since(start)
	p.allocPerOp = float64(totalAlloc()-alloc0) / float64(len(p.ops))
	if p.peakRSSMB, err = rss.median(); err != nil {
		return p, err
	}
	p.fingerprint = hex.EncodeToString(fp.Sum(nil))
	p.notes = map[string]float64{"max_op_over_deadline": maxLatency(p.ops).Seconds() / reduceDeadline.Seconds()}
	if tr != nil {
		n := float64(reduceCountedOps)
		p.layers = map[string]metric{
			"lbgraph.build_ms":    {median(tr.durations("Lab.BuildInstance")), "ms"},
			"mis.solve_ms":        {median(tr.durations("Lab.ExactMaxIS")), "ms"},
			"congest.run_ms":      {median(tr.durations("Network.Run")), "ms"},
			"core.simulate_ms":    {median(tr.durations("Lab.RunReduction")), "ms"},
			"mis.steps":           {float64(counts.steps) / n, "count"},
			"congest.rounds":      {float64(counts.rounds) / n, "count"},
			"congest.bits":        {float64(counts.congestBits) / n, "bit"},
			"cc.writes":           {float64(counts.ccWrites) / n, "count"},
			"cc.bits":             {float64(counts.ccBits) / n, "bit"},
			"cache.hit_ratio":     {ratio(counts.hits, counts.hits+counts.misses), "ratio"},
			"core.small_alloc_mb": {medianOf(smallAlloc) / 1e6, "MB"},
		}
	}
	return p, nil
}

func (c *reduceCounts) add(o reduceCounts) {
	c.steps += o.steps
	c.rounds += o.rounds
	c.congestBits += o.congestBits
	c.ccWrites += o.ccWrites
	c.ccBits += o.ccBits
	c.hits += o.hits
	c.misses += o.misses
}

// tracedReduce is one traced op: spans around BuildInstance, ExactMaxIS
// and a bare network run on the probe Lab, then the measured
// RunReduction, whose duration is the op's latency. It also returns the
// heap allocated inside RunReduction.
func tracedReduce(tr *tracer, i int, lab, probe *congestlb.Lab, op reduceOp) (congestlb.SimulationReport, time.Duration, reduceCounts, float64, error) {
	var c reduceCounts
	root := tr.begin("reduce.op", i, 0)
	defer tr.end(root)

	s := tr.begin("Lab.BuildInstance", i, root)
	inst, err := probe.BuildInstance(op.fam, op.in)
	tr.end(s)
	if err != nil {
		return congestlb.SimulationReport{}, 0, c, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), reduceDeadline)
	defer cancel()
	s = tr.begin("Lab.ExactMaxIS", i, root)
	sol, err := probe.ExactMaxIS(ctx, inst)
	tr.end(s)
	if err != nil {
		return congestlb.SimulationReport{}, 0, c, 0, err
	}
	c.steps = sol.Steps
	s = tr.begin("Network.Run", i, root)
	net, err := congestlb.NewCongestNetwork(inst.Graph, congestlb.GossipExactPrograms(inst.Graph.N()), op.cfg)
	var run congestlb.RunResult
	if err == nil {
		run, err = net.Run()
	}
	tr.end(s)
	if err != nil {
		return congestlb.SimulationReport{}, 0, c, 0, err
	}
	c.rounds, c.congestBits = int64(run.Stats.Rounds), run.Stats.TotalBits

	alloc0 := totalAlloc()
	s = tr.begin("Lab.RunReduction", i, root)
	rep, err := lab.RunReduction(ctx, op.fam, op.in, op.cfg)
	lat := tr.end(s)
	alloc := float64(totalAlloc() - alloc0)
	if err != nil {
		return rep, lat, c, alloc, err
	}
	c.ccWrites, c.ccBits = rep.BlackboardWrites, rep.BlackboardBits
	c.hits, c.misses = rep.SolveCacheHits, rep.SolveCacheMisses
	if !sol.Optimal || sol.Weight != rep.Opt {
		err = fmt.Errorf("exact solve weight %d (optimal %v) differs from the reduction's opt %d", sol.Weight, sol.Optimal, rep.Opt)
	}
	return rep, lat, c, alloc, err
}

// writeReduceOp adds op i and its result to the fingerprint.
func writeReduceOp(h hash.Hash, i int, op reduceOp, rep congestlb.SimulationReport) {
	fmt.Fprintf(h, "%d %s disjoint=%v in=", i, op.fam.Name(), op.disjoint)
	for _, v := range op.in {
		for j := 0; j < v.Len(); j++ {
			if v.Get(j) {
				h.Write([]byte{'1'})
			} else {
				h.Write([]byte{'0'})
			}
		}
		h.Write([]byte{'|'})
	}
	fmt.Fprintf(h, " n=%d opt=%d decision=%v truth=%v rounds=%d bb=%d/%d congest=%d\n",
		rep.N, rep.Opt, rep.Decision, rep.Truth, rep.Rounds, rep.BlackboardWrites, rep.BlackboardBits, rep.CongestTotalBits)
}
