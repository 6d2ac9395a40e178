// Command perfbench is congestlb's end-to-end benchmark. Given a workload
// and a seed it generates the inputs, drives them through the public API
// (and the HTTP service), checks every output and prints one JSON result
// line. See README.md for the workloads, the metrics and why they were
// chosen.
//
//	bash perfbench/run.sh --workload suite|reduce|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the run measures one workload with tracing off and
// reports the end-to-end metrics. With --trace 1 it runs every workload,
// each first untraced and then traced over the same inputs, and reports
// the per-layer metrics; spans, a self-time summary and the tracing
// overhead go to .bench_build/perfbench/runs/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"congestlb/internal/mis"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opRecord is one measured operation.
type opRecord struct {
	latency time.Duration
	ok      bool // every check on the op's output passed
	optimal bool // no solve in the op was cut by a step budget or deadline
}

// phase is what one measured or traced pass of a workload returns.
type phase struct {
	ops     []opRecord
	elapsed time.Duration
	// allocPerOp is the Go heap allocated per op, in bytes.
	allocPerOp float64
	// peakRSSMB is the median per-window resident-set peak (suite: the
	// median of the op processes' peaks).
	peakRSSMB float64
	// setup holds set-up samples the pass took itself (suite: each op
	// starts a process); the other workloads sample set-up in children.
	setup       []time.Duration
	fingerprint string
	// layers are the per-layer metrics of a traced pass.
	layers map[string]metric
	// notes are extra facts for the run record: headroom to deadlines
	// and step budgets, open-loop validity figures.
	notes map[string]float64
}

// workload is one benchmark workload.
type workload struct {
	name string
	// sloMS is the latency limit behind slo_met_share.
	sloMS float64
	// measure runs one pass of at least dur; tr is nil when untraced.
	measure func(seed int64, dur time.Duration, tr *tracer) (phase, error)
	// setup times one program set-up (construction plus warm-up) and
	// runs in a fresh child process; nil when measure samples set-up.
	setup func(seed int64) (time.Duration, error)
}

var workloads = []workload{
	{name: "suite", sloMS: suiteSLOMS, measure: measureSuite},
	{name: "reduce", sloMS: reduceSLOMS, measure: measureReduce, setup: setupReduce},
	{name: "serve", sloMS: serveSLOMS, measure: measureServe, setup: setupServe},
}

// setupSamples is how many child processes time a cold set-up per run.
const setupSamples = 9

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: suite, reduce or serve")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	child := fs.String("child", "", "internal: run one child-process step")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		if err := runChild(*child, fs.Args(), *seed, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench child %s: %v\n", *child, err)
			return 1
		}
		return 0
	}
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload suite|reduce|serve, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	host := hostInfo()
	fmt.Fprintf(stderr, "perfbench: %s seed=%d seconds=%g trace=%d %s\n", w.name, *seed, *seconds, *trace, host)

	rec := record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Host: host}
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, dur, &rec)
	} else {
		res, err = runMeasured(w, *seed, dur, &rec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rec.Result = res
	if path, err := rec.write(); err != nil {
		fmt.Fprintf(stderr, "perfbench: run record: %v\n", err)
	} else {
		fmt.Fprintf(stderr, "perfbench: run record %s\n", path)
	}
	for _, f := range rec.Fingerprints {
		fmt.Fprintf(stdout, "fingerprint %s sha256:%s\n", f.Workload, f.SHA256)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d ops failed their output checks\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runMeasured is the untraced run: cold set-ups, then one measured pass.
func runMeasured(w workload, seed int64, dur time.Duration, rec *record) (result, error) {
	var setups []time.Duration
	if w.setup != nil {
		for i := 0; i < setupSamples; i++ {
			d, err := childSetup(w.name, seed)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, d)
		}
	}
	cpu0, err := readCPUTicks()
	if err != nil {
		return result{}, err
	}
	p, err := w.measure(seed, dur, nil)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	cpu1, err := readCPUTicks()
	if err != nil {
		return result{}, err
	}
	rec.StealShare = cpu1.stealShareSince(cpu0)
	setups = append(setups, p.setup...)
	if len(p.ops) < minTailSamples {
		return result{}, fmt.Errorf("%s: %d ops is too few for a tail at p75 or above", w.name, len(p.ops))
	}
	lat := latenciesMS(p.ops)
	tail, pct := tailOf(lat)
	var ok, optimal, slo int
	for _, op := range p.ops {
		if op.ok {
			ok++
			if float64(op.latency)/1e6 <= w.sloMS {
				slo++
			}
		}
		if op.optimal {
			optimal++
		}
	}
	n := float64(len(p.ops))
	m := map[string]metric{
		"setup_s":          {medianDur(setups).Seconds(), "s"},
		"throughput_ops_s": {float64(ok) / p.elapsed.Seconds(), "1/s"},
		"latency_p50_ms":   {median(lat), "ms"},
		"latency_tail_ms":  {tail, "ms"},
		"alloc_mb_per_op":  {p.allocPerOp / 1e6, "MB"},
		"peak_rss_mb":      {p.peakRSSMB, "MB"},
		"ok_share":         {float64(ok) / n, "ratio"},
		"optimal_share":    {float64(optimal) / n, "ratio"},
		"slo_met_share":    {float64(slo) / n, "ratio"},
	}
	rec.Tail = &tailInfo{Percentile: pct, Samples: len(lat), Beyond: tailBeyond, SLOms: w.sloMS}
	rec.SetupSamplesS = seconds(setups)
	rec.Fingerprints = []fingerprint{{w.name, p.fingerprint}}
	rec.Notes = map[string]map[string]float64{w.name: p.notes}
	fmt.Fprintf(os.Stderr, "perfbench: %s tail is p%.2f of %d samples (%d beyond); CPU steal %.1f%%; notes %v\n",
		w.name, pct, len(lat), tailBeyond, 100*rec.StealShare, p.notes)
	return result{Correct: ok == len(p.ops), Attempted: len(p.ops), Failed: len(p.ops) - ok, Metrics: m}, nil
}

// runTraced reports every per-layer metric, so it runs every workload
// (the requested one first). Each gets an untraced and a traced pass over
// the same inputs, which must fingerprint alike; the difference of their
// p50s is the tracing overhead.
func runTraced(first workload, seed int64, dur time.Duration, rec *record) (result, error) {
	order := []workload{first}
	for _, w := range workloads {
		if w.name != first.name {
			order = append(order, w)
		}
	}
	pass := dur / time.Duration(2*len(order))
	res := result{Correct: true, Metrics: map[string]metric{}}
	rec.Notes = map[string]map[string]float64{}
	for _, w := range order {
		plain, err := w.measure(seed, pass, nil)
		if err != nil {
			return result{}, fmt.Errorf("%s untraced: %w", w.name, err)
		}
		tr := newTracer()
		traced, err := w.measure(seed, pass, tr)
		if err != nil {
			return result{}, fmt.Errorf("%s traced: %w", w.name, err)
		}
		if plain.fingerprint != traced.fingerprint {
			return result{}, fmt.Errorf("%s: the traced pass's fingerprint %s differs from the untraced pass's %s",
				w.name, traced.fingerprint, plain.fingerprint)
		}
		for name, m := range traced.layers {
			res.Metrics[name] = m
		}
		for _, p := range []phase{plain, traced} {
			for _, op := range p.ops {
				res.Attempted++
				if !op.ok {
					res.Failed++
					res.Correct = false
				}
			}
		}
		untracedP50, tracedP50 := median(latenciesMS(plain.ops)), median(latenciesMS(traced.ops))
		rec.Traces = append(rec.Traces, traceRecord{
			Workload:      w.name,
			UntracedP50ms: untracedP50,
			TracedP50ms:   tracedP50,
			OverheadMS:    tracedP50 - untracedP50,
			SelfTime:      tr.selfTime(),
			Spans:         tr.spans,
		})
		rec.Fingerprints = append(rec.Fingerprints, fingerprint{w.name, traced.fingerprint})
		rec.Notes[w.name] = traced.notes
		fmt.Fprintf(os.Stderr, "perfbench: %s tracing overhead %.3f ms (p50 %.3f traced vs %.3f untraced)\n",
			w.name, tracedP50-untracedP50, tracedP50, untracedP50)
	}
	return res, nil
}

// record is the run record written next to the build.
type record struct {
	Workload      string        `json:"workload"`
	Seed          int64         `json:"seed"`
	Seconds       float64       `json:"seconds"`
	Trace         int           `json:"trace"`
	Host          host          `json:"host"`
	Fingerprints  []fingerprint `json:"fingerprints"`
	Tail          *tailInfo     `json:"tail,omitempty"`
	SetupSamplesS []float64     `json:"setup_samples_s,omitempty"`
	// StealShare is the share of the host's CPU time the hypervisor gave
	// to others during the measured pass; it explains slow runs.
	StealShare float64                       `json:"steal_share"`
	Notes      map[string]map[string]float64 `json:"notes,omitempty"`
	Traces     []traceRecord                 `json:"traces,omitempty"`
	Result     result                        `json:"result"`
}

type fingerprint struct {
	Workload string `json:"workload"`
	SHA256   string `json:"sha256"`
}

type tailInfo struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
	SLOms      float64 `json:"slo_ms"`
}

type traceRecord struct {
	Workload      string     `json:"workload"`
	UntracedP50ms float64    `json:"untraced_p50_ms"`
	TracedP50ms   float64    `json:"traced_p50_ms"`
	OverheadMS    float64    `json:"overhead_ms"`
	SelfTime      []selfStat `json:"self_time"`
	Spans         []span     `json:"spans"`
}

// runsDir holds run records, relative to the checkout root run.sh runs in.
const runsDir = ".bench_build/perfbench/runs"

func (r *record) write() (string, error) {
	if err := os.MkdirAll(runsDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(runsDir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace))
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// host is recorded with every result.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostInfo() host {
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH)
}

// tailBeyond is how many samples must lie beyond the tail percentile;
// minTailSamples keeps that percentile at p75 or above.
const (
	tailBeyond     = 10
	minTailSamples = 4 * tailBeyond
)

// tailOf returns the highest order statistic with tailBeyond samples
// above it, and the percentile it sits at. lat must be sorted.
func tailOf(lat []float64) (value, percentile float64) {
	n := len(lat)
	return lat[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n)
}

// latenciesMS returns the ops' latencies in ms, sorted.
func latenciesMS(ops []opRecord) []float64 {
	lat := make([]float64, len(ops))
	for i, op := range ops {
		lat[i] = float64(op.latency) / 1e6
	}
	sort.Float64s(lat)
	return lat
}

// median of a sorted slice (0 when empty).
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

func maxLatency(ops []opRecord) time.Duration {
	var m time.Duration
	for _, op := range ops {
		m = max(m, op.latency)
	}
	return m
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

func medianDur(ds []time.Duration) time.Duration {
	return time.Duration(medianOf(seconds(ds)) * float64(time.Second))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// rssWindows measures the process's resident-set peak per window: it
// resets the kernel's high-water mark (VmHWM) as each window starts and
// reads it as the window ends. The median of the window peaks is steady
// where a whole-run peak is set by one outlying GC cycle.
type rssWindows struct {
	every time.Duration
	next  time.Time
	peaks []float64
}

func newRSSWindows(every time.Duration) (*rssWindows, error) {
	w := &rssWindows{every: every, next: time.Now().Add(every)}
	return w, resetPeakRSS()
}

// tick closes the current window once it has run its length.
func (w *rssWindows) tick() error {
	if time.Now().Before(w.next) {
		return nil
	}
	w.next = w.next.Add(w.every)
	return w.close()
}

func (w *rssWindows) close() error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	w.peaks = append(w.peaks, mb)
	return resetPeakRSS()
}

// median closes the last window and returns the median window peak.
func (w *rssWindows) median() (float64, error) {
	err := w.close()
	return medianOf(w.peaks), err
}

// rssWindow is the length of one resident-set window.
const rssWindow = time.Second

// resetPeakRSS sets VmHWM back to the current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// cpuTicks are the aggregate CPU times of /proc/stat's first line.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() (cpuTicks, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		var v uint64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return cpuTicks{}, fmt.Errorf("/proc/stat field %q: %w", f, err)
		}
		if i < 8 { // user..steal; guest time is already in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

func (t cpuTicks) stealShareSince(t0 cpuTicks) float64 {
	if t.total == t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

// cut reports an error meaning a solve or run was cut short by a
// deadline or by the exact solver's step budget.
func cut(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
		errors.Is(err, mis.ErrBudgetExceeded)
}

// totalAlloc is the cumulative Go heap allocation of this process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
