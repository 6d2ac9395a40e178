package congest

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"congestlb/internal/graphs"
)

// staggered sends its ID to every neighbour for id%4+1 rounds, then
// terminates — nodes drop out of the round loop at different times, which
// exercises the pipeline's per-worker done counting and the final
// delivery-only step.
type staggered struct {
	info NodeInfo
	last int
	done bool
}

func (s *staggered) Init(info NodeInfo) {
	s.info = info
	s.last = info.ID%4 + 1
	s.done = false
}

func (s *staggered) Round(round int, inbox []Message) []Message {
	if round > s.last {
		s.done = true
		return nil
	}
	out := make([]Message, 0, len(s.info.Neighbors))
	for _, v := range s.info.Neighbors {
		out = append(out, Message{From: s.info.ID, To: v, Data: []byte{byte(s.info.ID), byte(round)}})
	}
	return out
}

func (s *staggered) Done() bool  { return s.done }
func (s *staggered) Output() any { return s.last }

// hookRec is one hook observation; the transcript — the ordered sequence
// of hookRecs — is the engine-equivalence currency of this file.
type hookRec struct {
	round    int
	from, to int
	data     string
}

// runTranscript executes one run recording the full hook transcript.
func runTranscript(t *testing.T, g *graphs.Graph, programs []NodeProgram, cfg Config) (Result, []hookRec, error) {
	t.Helper()
	var tx []hookRec
	userHook := cfg.Hook
	cfg.Hook = func(round int, msg Message) error {
		tx = append(tx, hookRec{round: round, from: msg.From, to: msg.To, data: string(msg.Data)})
		if userHook != nil {
			return userHook(round, msg)
		}
		return nil
	}
	net, err := NewNetwork(g, programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	result, err := net.Run()
	return result, tx, err
}

// TestPipelineMatchesSequential is the tentpole determinism contract:
// result, stats and the complete message transcript must be bit-identical
// to the sequential engine at workers 1, 2, 4 and 8, on both a uniform
// ring and a hub-skewed star, for uniform and staggered termination.
func TestPipelineMatchesSequential(t *testing.T) {
	cases := []struct {
		name     string
		g        *graphs.Graph
		programs func(n int) []NodeProgram
	}{
		{"ring/flood", ring(t, 24), floodPrograms},
		{"star/flood", star(t, 25), floodPrograms},
		{"ring/staggered", ring(t, 24), func(n int) []NodeProgram {
			out := make([]NodeProgram, n)
			for i := range out {
				out[i] = &staggered{}
			}
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.N()
			seqRes, seqTx, err := runTranscript(t, tc.g, tc.programs(n), Config{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					res, tx, err := runTranscript(t, tc.g, tc.programs(n),
						Config{Seed: 7, Parallel: true, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(seqRes, res) {
						t.Fatalf("result diverged:\nseq %+v\npipe %+v", seqRes, res)
					}
					if !reflect.DeepEqual(seqTx, tx) {
						t.Fatalf("hook transcript diverged (%d vs %d records)", len(seqTx), len(tx))
					}
				})
			}
		})
	}
}

// TestPipelineErrorsMatchSequential: every validation failure mode must
// produce byte-identical error strings under the pipeline, and the
// winning error must be the first in sender order even when a
// higher-ranked worker's range also contains one.
func TestPipelineErrorsMatchSequential(t *testing.T) {
	mkPrograms := func(n int, bad map[int]Message) []NodeProgram {
		programs := make([]NodeProgram, n)
		for i := range programs {
			if msg, ok := bad[i]; ok {
				programs[i] = &misbehaver{msg: msg}
			} else {
				programs[i] = &silent{}
			}
		}
		return programs
	}
	cases := []struct {
		name string
		bad  map[int]Message
	}{
		{"forged", map[int]Message{2: {From: 5, To: 3, Data: []byte{1}}}},
		{"non-neighbour", map[int]Message{2: {From: 2, To: 7, Data: []byte{1}}}},
		{"bandwidth", map[int]Message{2: {From: 2, To: 3, Data: make([]byte, 100)}}},
		// Two misbehavers in different worker ranges: node 3's error must
		// win over node 13's at every worker count.
		{"first-in-sender-order", map[int]Message{
			3:  {From: 3, To: 9, Data: []byte{1}},
			13: {From: 13, To: 2, Data: []byte{1}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := ring(t, 16)
			seqNet, err := NewNetwork(g, mkPrograms(16, tc.bad), Config{})
			if err != nil {
				t.Fatal(err)
			}
			_, seqErr := seqNet.Run()
			if seqErr == nil {
				t.Fatal("sequential run accepted the bad message")
			}
			for _, workers := range []int{2, 4, 8} {
				net, err := NewNetwork(g, mkPrograms(16, tc.bad), Config{Parallel: true, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				_, pipeErr := net.Run()
				if pipeErr == nil || pipeErr.Error() != seqErr.Error() {
					t.Fatalf("workers=%d error %q, sequential %q", workers, pipeErr, seqErr)
				}
			}
		})
	}
}

// TestPipelineDuplicateRejected covers the seen-stamp path separately:
// duplicateSender hardcodes From: 0, so it must sit at node 0.
func TestPipelineDuplicateRejected(t *testing.T) {
	g := ring(t, 8)
	mk := func() []NodeProgram {
		programs := make([]NodeProgram, 8)
		programs[0] = &duplicateSender{}
		for i := 1; i < 8; i++ {
			programs[i] = &silent{}
		}
		return programs
	}
	seqNet, _ := NewNetwork(g, mk(), Config{})
	_, seqErr := seqNet.Run()
	net, _ := NewNetwork(g, mk(), Config{Parallel: true, Workers: 4})
	if _, err := net.Run(); err == nil || err.Error() != seqErr.Error() {
		t.Fatalf("pipeline error %q, sequential %q", err, seqErr)
	}
}

// TestPipelineMaxRounds: the failsafe fires with the same error, and the
// hook transcript still covers rounds 1..MaxRounds exactly like the
// sequential engine (the final round's delivery is owed by the abort
// path).
func TestPipelineMaxRounds(t *testing.T) {
	mk := func(n int) []NodeProgram {
		programs := make([]NodeProgram, n)
		for i := range programs {
			programs[i] = &chatterbox{}
		}
		return programs
	}
	g := ring(t, 12)
	_, seqTx, seqErr := runTranscript(t, g, mk(12), Config{MaxRounds: 10})
	if !errors.Is(seqErr, ErrMaxRounds) {
		t.Fatalf("sequential error = %v", seqErr)
	}
	_, tx, err := runTranscript(t, g, mk(12), Config{MaxRounds: 10, Parallel: true, Workers: 4})
	if !errors.Is(err, ErrMaxRounds) || err.Error() != seqErr.Error() {
		t.Fatalf("pipeline error %q, sequential %q", err, seqErr)
	}
	if !reflect.DeepEqual(seqTx, tx) {
		t.Fatalf("transcript diverged on MaxRounds abort: %d vs %d records", len(seqTx), len(tx))
	}
}

// TestPipelineCancel: a cancelled context aborts with the same error as
// the sequential engine.
func TestPipelineCancel(t *testing.T) {
	g := ring(t, 12)
	programs := make([]NodeProgram, 12)
	for i := range programs {
		programs[i] = &chatterbox{}
	}
	net, err := NewNetwork(g, programs, Config{Parallel: true, Workers: 4, MaxRounds: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := net.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// TestPipelineHookErrorAborts: hook failures abort with the wrapped error
// under the pipeline too.
func TestPipelineHookErrorAborts(t *testing.T) {
	g := ring(t, 8)
	boom := errors.New("boom")
	cfg := Config{Parallel: true, Workers: 4, Hook: func(int, Message) error { return boom }}
	net, err := NewNetwork(g, floodPrograms(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped boom", err)
	}
}

// TestPipelineRunStateRetainedAcrossRuns: repeated pipelined runs on one
// Network reuse the retained double buffers invisibly.
func TestPipelineRunStateRetainedAcrossRuns(t *testing.T) {
	g := ring(t, 24)
	net, err := NewNetwork(g, floodPrograms(24), Config{Seed: 7, Parallel: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	first, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("pipelined re-run diverged:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// TestPipelineEnvOverride: CONGESTLB_PIPELINE flips engine selection per
// Run — "force" turns pipelining on for configs that never asked for it,
// "off" disables it — which is the lever the determinism CI pulls.
func TestPipelineEnvOverride(t *testing.T) {
	g := ring(t, 16)
	net, err := NewNetwork(g, floodPrograms(16), Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if w := net.effectiveWorkers(); w != 1 {
		t.Fatalf("no Parallel, no override: workers = %d, want 1", w)
	}
	t.Setenv("CONGESTLB_PIPELINE", "force")
	if w := net.effectiveWorkers(); w != 4 {
		t.Fatalf("forced: workers = %d, want 4", w)
	}
	t.Setenv("CONGESTLB_PIPELINE", "off")
	parNet, err := NewNetwork(g, floodPrograms(16), Config{Parallel: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if w := parNet.effectiveWorkers(); w != 1 {
		t.Fatalf("disabled: workers = %d, want 1", w)
	}
	// And a forced run is still bit-identical to sequential.
	t.Setenv("CONGESTLB_PIPELINE", "force")
	forced, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("CONGESTLB_PIPELINE", "off")
	seq, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(forced, seq) {
		t.Fatalf("forced pipeline diverged from sequential:\nforced %+v\nseq    %+v", forced, seq)
	}
}
