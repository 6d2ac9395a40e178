package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// childTimeout bounds any child process; the benchmark kills and reaps a
// child that outlives it.
const childTimeout = 120 * time.Second

// child is a running copy of this binary started with --child.
type child struct {
	cmd    *exec.Cmd
	cancel context.CancelFunc
	out    *bufio.Reader
	start  time.Time
}

// startChild runs step kind of runChild; args follow a "--" so the
// step's own flags pass through the top-level flag set.
func startChild(kind string, seed int64, args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	argv := append([]string{"--child", kind, "--seed", fmt.Sprint(seed), "--"}, args...)
	cmd := exec.CommandContext(ctx, exe, argv...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		cancel()
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		cancel()
		return nil, err
	}
	return &child{cmd: cmd, cancel: cancel, out: bufio.NewReader(stdout), start: start}, nil
}

// line reads the child's next output line and the time it arrived.
func (c *child) line() ([]byte, time.Time, error) {
	b, err := c.out.ReadBytes('\n')
	return b, time.Now(), err
}

// wait reaps the child and returns its peak resident set in MB.
func (c *child) wait() (float64, error) {
	defer c.cancel()
	_, _ = io.Copy(io.Discard, c.out) // let the child finish writing
	if err := c.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("child %v: %w", c.cmd.Args[1:], err)
	}
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
	}
	return 0, nil
}

// runChild is the child side: one step, results as JSON on stdout.
func runChild(kind string, args []string, seed int64, stdout io.Writer) error {
	switch kind {
	case "suite":
		fs := flag.NewFlagSet("suite", flag.ContinueOnError)
		jobs := fs.Int("jobs", 1, "experiment worker-pool size")
		split := fs.Bool("split", false, "run each experiment ID in its own call")
		if err := fs.Parse(args); err != nil {
			return err
		}
		return childSuite(*jobs, *split, stdout)
	case "loadgen":
		if len(args) != 2 {
			return errors.New("loadgen wants a server URL and a duration in ns")
		}
		var ns int64
		if _, err := fmt.Sscan(args[1], &ns); err != nil {
			return fmt.Errorf("loadgen duration %q: %w", args[1], err)
		}
		return childLoadgen(seed, args[0], time.Duration(ns), stdout)
	case "setup":
		if len(args) != 1 {
			return errors.New("setup wants one workload name")
		}
		w, ok := lookup(args[0])
		if !ok || w.setup == nil {
			return fmt.Errorf("no set-up for workload %q", args[0])
		}
		d, err := w.setup(seed)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(d.Nanoseconds())
	}
	return fmt.Errorf("unknown child step %q", kind)
}

// childSetup times one cold set-up of a workload in a fresh process.
func childSetup(name string, seed int64) (time.Duration, error) {
	c, err := startChild("setup", seed, name)
	if err != nil {
		return 0, err
	}
	b, _, rerr := c.line()
	if _, err := c.wait(); err != nil {
		return 0, err
	}
	if rerr != nil {
		return 0, fmt.Errorf("set-up child: %w", rerr)
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return 0, fmt.Errorf("set-up child output %q: %w", b, err)
	}
	return time.Duration(ns), nil
}
