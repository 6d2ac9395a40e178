package core_test

import (
	"context"
	"math/rand"
	"testing"

	"congestlb/internal/bitvec"
	"congestlb/internal/congest"
	"congestlb/internal/core"
	"congestlb/internal/graphs"
)

// emptyProgram sends a zero-byte message to every neighbour in round 1
// and then stops.
type emptyProgram struct {
	nbrs []graphs.NodeID
	id   graphs.NodeID
	done bool
}

func (p *emptyProgram) Init(info congest.NodeInfo) { p.id, p.nbrs = info.ID, info.Neighbors }
func (p *emptyProgram) Round(int, []congest.Message) []congest.Message {
	if p.done {
		return nil
	}
	p.done = true
	out := make([]congest.Message, len(p.nbrs))
	for i, v := range p.nbrs {
		out[i] = congest.Message{From: p.id, To: v}
	}
	return out
}
func (p *emptyProgram) Done() bool  { return p.done }
func (p *emptyProgram) Output() any { return nil }

func emptyFactory(inst core.Instance) []congest.NodeProgram {
	programs := make([]congest.NodeProgram, inst.Graph.N())
	for i := range programs {
		programs[i] = &emptyProgram{}
	}
	return programs
}

// TestZeroBitCutMessageRejected: a message that crosses the player cut
// carrying no bits would be a free blackboard write, so the Theorem 5
// charge rejects it — on the solo and the batched path alike, with the
// same error.
func TestZeroBitCutMessageRejected(t *testing.T) {
	const want = "core: run: congest: hook: cc: write of 0 bits"
	l := mustLinear(t)
	rng := rand.New(rand.NewSource(5))
	in, _, err := bitvec.RandomUniquelyIntersecting(testParams.K(), testParams.T, bitvec.GenOptions{Density: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := l.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(core.CutEdgesOf(inst)) == 0 {
		t.Fatal("test setup: instance has no cut edges")
	}
	_, err = core.SimulateBuiltCtx(context.Background(), l, in, inst, emptyFactory, core.GossipOpt, congest.Config{})
	if err == nil || err.Error() != want {
		t.Fatalf("SimulateBuiltCtx error = %v, want %q", err, want)
	}
	_, errs, _ := core.SimulateBatch(context.Background(), []core.BatchSim{
		{Fam: l, In: in, Inst: inst, Factory: emptyFactory, Extract: core.GossipOpt},
	})
	if errs[0] == nil || errs[0].Error() != want {
		t.Fatalf("SimulateBatch error = %v, want %q", errs[0], want)
	}
}
