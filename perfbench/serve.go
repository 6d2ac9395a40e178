package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"congestlb"
	"congestlb/internal/graphs"
	"congestlb/internal/serve"
)

// The serve workload drives an in-process serve.Server over loopback
// HTTP with seeded Poisson arrivals at a fixed rate (an open loop), from
// at most nproc client connections. Latency runs from each request's due
// time, so a stall also charges the requests queued behind it.
const (
	// serveRate is about 30% of the 2,400-2,570 requests/s this mix
	// reaches on a 2-vCPU host; at half of that the latency figures
	// spread more (see README.md).
	serveRate  = 750.0
	serveSLOMS = 50
	// serveDeadlineMS is every request's deadline_ms.
	serveDeadlineMS = 2000
	// A request reuses a graph from its class's hot pool with this
	// probability (drawn with a Zipf skew), else it sends a fresh graph.
	serveHotShare = 0.25
	serveHotItems = 48
	serveZipfS    = 1.2
	// serveReduceItems distinct reduce inputs form the reduce pool.
	serveReduceItems = 24
	// A hot graph is reused only this long after its first request, so
	// its first solve has finished and cache attribution is exact.
	serveReuseGap = 200 * time.Millisecond
	// serveCacheEntries sizes the private caches and the shared tier
	// above any run's working set, so no entry is evicted mid-run.
	serveCacheEntries = 1 << 15
	// Open-loop validity: a run is reported invalid when the generator
	// fell behind (more than 1% of requests went out over
	// serveMaxLateness late) or the backlog grew (the median backlog over
	// the last quarter of arrivals exceeds twice that over the first
	// quarter plus serveBacklogSlack). A single short host stall trips
	// neither.
	serveMaxLateness  = 50 * time.Millisecond
	serveBacklogSlack = 2
	// solverBudget is the exact solver's default step budget.
	solverBudget = 50_000_000
)

// errOpenLoopInvalid marks a serve run whose generator fell behind or
// whose backlog grew; it reports no numbers.
var errOpenLoopInvalid = errors.New("open loop invalid")

const (
	classDense = iota
	classSparse
	classReduce
)

var serveClassNames = []string{"dense", "sparse", "reduce"}

// serveMix is each class's share of the requests.
var serveMix = []float64{0.45, 0.40, 0.15}

// The reduce class: the smallest linear instance (n=24).
var serveReduceParams = congestlb.Params{T: 2, Alpha: 1, Ell: 2}

var serveTenants = []serve.TenantConfig{
	{Name: "alpha", APIKey: "alpha-key", Quota: serve.Quota{SolverWorkers: 1, MemoryCacheEntries: serveCacheEntries}},
	{Name: "beta", APIKey: "beta-key", Quota: serve.Quota{SolverWorkers: 1, MemoryCacheEntries: serveCacheEntries}},
}

// serveItem is one request body, sent once or (hot items) several times.
type serveItem struct {
	class int
	path  string
	body  []byte
	key   string           // short content hash, for the fingerprint
	graph *congestlb.Graph // solve items: the graph, to check the answer
	// tenant pins reduce items to one tenant; -1 for solve items.
	tenant int
	// firstAt is the due time of the item's first request; -1 before.
	firstAt time.Duration
}

type serveReq struct {
	at     time.Duration // due time after the run starts
	item   int
	tenant int
}

type serveSchedule struct {
	items []*serveItem
	reqs  []serveReq
}

func newItem(class int, path string, req any, g *congestlb.Graph, tenant int) (*serveItem, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(body)
	return &serveItem{class: class, path: path, body: body, key: hex.EncodeToString(sum[:8]),
		graph: g, tenant: tenant, firstAt: -1}, nil
}

// newGraphItem draws a solve request of the dense or sparse class.
// Dense: n 30..50, edge density 0.1..0.3. Sparse: n 24..48, average
// degree 1..2.5, which leaves components, pendants and isolated nodes.
func newGraphItem(class int, rng *rand.Rand) (*serveItem, error) {
	var n, m int
	var density float64
	if class == classDense {
		n = 30 + rng.Intn(21)
		density = 0.1 + 0.2*rng.Float64()
	} else {
		n = 24 + rng.Intn(25)
		m = int((1 + 1.5*rng.Float64()) * float64(n) / 2)
	}
	g := graphs.NewWithN(n)
	spec := serve.GraphSpec{N: n, Weights: make([]int64, n), Edges: [][2]int{}}
	for v := range spec.Weights {
		spec.Weights[v] = int64(1 + rng.Intn(9))
		g.AddNodeID(spec.Weights[v])
	}
	addEdge := func(u, v int) error {
		spec.Edges = append(spec.Edges, [2]int{u, v})
		return g.AddEdge(u, v)
	}
	if class == classDense {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < density {
					if err := addEdge(u, v); err != nil {
						return nil, err
					}
				}
			}
		}
	} else {
		seen := map[[2]int]bool{}
		for len(seen) < m {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			e := [2]int{min(u, v), max(u, v)}
			if seen[e] {
				continue
			}
			seen[e] = true
			if err := addEdge(e[0], e[1]); err != nil {
				return nil, err
			}
		}
	}
	var req serve.SolveRequest
	req.DeadlineMS = serveDeadlineMS
	req.Graph = spec
	return newItem(class, "/v1/solve", req, g, -1)
}

// newReduceItems draws count distinct promise inputs for the reduce
// class, alternating the two answers, item j pinned to tenant j%2.
func newReduceItems(rng *rand.Rand, count int) ([]*serveItem, error) {
	fam, err := congestlb.NewLinear(serveReduceParams)
	if err != nil {
		return nil, err
	}
	var items []*serveItem
	seen := map[string]bool{}
	for attempt := 0; len(items) < count && attempt < 100*count; attempt++ {
		var in congestlb.Inputs
		if attempt%2 == 0 {
			in, err = congestlb.RandomPairwiseDisjoint(fam.InputBits(), fam.Players(), 0.4, rng)
		} else {
			in, _, err = congestlb.RandomUniquelyIntersecting(fam.InputBits(), fam.Players(), 0.4, rng)
		}
		if err != nil {
			return nil, err
		}
		bits := make([]string, len(in))
		for i, v := range in {
			b := make([]byte, v.Len())
			for j := range b {
				b[j] = '0'
				if v.Get(j) {
					b[j] = '1'
				}
			}
			bits[i] = string(b)
		}
		if k := fmt.Sprint(bits); seen[k] {
			continue
		} else {
			seen[k] = true
		}
		var req serve.ReduceRequest
		req.DeadlineMS = serveDeadlineMS
		req.Family = "linear"
		req.Params = serve.ParamsSpec{T: serveReduceParams.T, Alpha: serveReduceParams.Alpha, Ell: serveReduceParams.Ell}
		req.Inputs = bits
		req.Config = serve.CongestSpec{Seed: int64(len(items))}
		item, err := newItem(classReduce, "/v1/reduce", req, nil, len(items)%len(serveTenants))
		if err != nil {
			return nil, err
		}
		items = append(items, item)
	}
	return items, nil
}

// buildServeSchedule draws the seed's arrivals for dur. Arrivals, hot
// pools and fresh graphs come from separate streams in need order, so a
// longer schedule extends a shorter one with the same seed.
func buildServeSchedule(seed int64, dur time.Duration) (*serveSchedule, error) {
	s := &serveSchedule{}
	arrivals := rand.New(rand.NewSource(seed))
	pools := rand.New(rand.NewSource(seed ^ 0x5eed))
	fresh := rand.New(rand.NewSource(seed ^ 0xf4e54))
	var hot [3][]int
	for _, class := range []int{classDense, classSparse} {
		for j := 0; j < serveHotItems; j++ {
			item, err := newGraphItem(class, pools)
			if err != nil {
				return nil, err
			}
			hot[class] = append(hot[class], len(s.items))
			s.items = append(s.items, item)
		}
	}
	reduceItems, err := newReduceItems(pools, serveReduceItems)
	if err != nil {
		return nil, err
	}
	for _, item := range reduceItems {
		hot[classReduce] = append(hot[classReduce], len(s.items))
		s.items = append(s.items, item)
	}
	var zipf [3]*rand.Zipf
	for c := range zipf {
		zipf[c] = rand.NewZipf(arrivals, serveZipfS, 1, uint64(len(hot[c])-1))
	}
	t := 0.0
	for {
		t += arrivals.ExpFloat64() / serveRate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			break
		}
		class, u := 0, arrivals.Float64()
		for u >= serveMix[class] && class < len(serveMix)-1 {
			u -= serveMix[class]
			class++
		}
		tenant := arrivals.Intn(len(serveTenants))
		item := -1
		switch {
		case class == classReduce:
			item = hot[class][zipf[class].Uint64()]
			tenant = s.items[item].tenant
		case arrivals.Float64() < serveHotShare:
			j := hot[class][zipf[class].Uint64()]
			if first := s.items[j].firstAt; first < 0 || at-first >= serveReuseGap {
				item = j
			}
		}
		if item < 0 {
			g, err := newGraphItem(class, fresh)
			if err != nil {
				return nil, err
			}
			item = len(s.items)
			s.items = append(s.items, g)
		}
		if s.items[item].firstAt < 0 {
			s.items[item].firstAt = at
		}
		s.reqs = append(s.reqs, serveReq{at: at, item: item, tenant: tenant})
	}
	return s, nil
}

// serveWarmItems are the set-up's warm-up requests: one of each class,
// from a stream of their own.
func serveWarmItems(seed int64) ([]*serveItem, error) {
	rng := rand.New(rand.NewSource(warmupSeed(seed)))
	var items []*serveItem
	for _, class := range []int{classDense, classSparse} {
		item, err := newGraphItem(class, rng)
		if err != nil {
			return nil, err
		}
		items = append(items, item)
	}
	red, err := newReduceItems(rng, 1)
	if err != nil {
		return nil, err
	}
	return append(items, red...), nil
}

// serveEnv is a running server and a client of it; the load generator
// holds only the client half.
type serveEnv struct {
	srv    *serve.Server
	hs     *serve.HTTPServer
	client *http.Client
	url    string
}

// startServe is the workload's program set-up: the server with two
// tenants over a shared tier, its loopback listener, the client, and
// each warm-up request once per tenant.
func startServe(warm []*serveItem) (*serveEnv, error) {
	srv, err := serve.New(serve.Config{Tenants: serveTenants, SharedTierEntries: serveCacheEntries})
	if err != nil {
		return nil, err
	}
	hs, err := serve.StartHTTP("127.0.0.1:0", srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := newServeClient(hs.URL())
	e.srv, e.hs = srv, hs
	for tenant := range serveTenants {
		for _, item := range warm {
			if rec := e.send(item, tenant); !rec.OK {
				e.close()
				return nil, fmt.Errorf("warm-up %s request: %s", serveClassNames[item.class], rec.Err)
			}
		}
	}
	return e, nil
}

// newServeClient is a client of the server at url over nproc
// connections.
func newServeClient(url string) *serveEnv {
	conns := runtime.NumCPU()
	return &serveEnv{url: url, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}}
}

func (e *serveEnv) close() error {
	e.client.CloseIdleConnections()
	err := e.hs.Shutdown(5 * time.Second)
	if cerr := e.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// setupServe times one set-up, excluding input generation.
func setupServe(seed int64) (time.Duration, error) {
	warm, err := serveWarmItems(seed)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	e, err := startServe(warm)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	return d, e.close()
}

// reqRecord is one request's checked outcome as the load generator
// reports it. Times are ns after the generator's start.
type reqRecord struct {
	Class   int                       `json:"class"`
	Tenant  int                       `json:"tenant"`
	Code    int                       `json:"code"`
	OK      bool                      `json:"ok"`
	Optimal bool                      `json:"optimal"`
	Weight  int64                     `json:"weight"` // solve weight, or the reduction's opt
	Steps   int64                     `json:"steps"`
	Cache   congestlb.SolveCacheStats `json:"cache"`
	WallMS  float64                   `json:"wall_ms"` // the job's wall time, measured by the server
	RTMS    float64                   `json:"rt_ms"`   // HTTP round trip
	Due     int64                     `json:"due_ns"`
	Sent    int64                     `json:"sent_ns"`
	Done    int64                     `json:"done_ns"`
	Err     string                    `json:"err,omitempty"`
}

// send posts one request and checks the answer: a solve's set must be
// independent in the sent graph with the reported weight and optimal; a
// reduction must decide correctly within its accounting bound. The
// record's times are left for the caller.
func (e *serveEnv) send(item *serveItem, tenant int) reqRecord {
	rec := reqRecord{Class: item.class, Tenant: tenant}
	fail := func(err error) reqRecord {
		rec.OK, rec.Err = false, err.Error()
		return rec
	}
	req, err := http.NewRequest(http.MethodPost, e.url+item.path, bytes.NewReader(item.body))
	if err != nil {
		return fail(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", serveTenants[tenant].APIKey)
	sent := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return fail(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.RTMS = float64(time.Since(sent)) / 1e6
	rec.Code = resp.StatusCode
	if err != nil {
		return fail(err)
	}
	var view serve.JobView
	if err := json.Unmarshal(data, &view); err != nil || rec.Code != http.StatusOK {
		return fail(fmt.Errorf("HTTP %d: %s", rec.Code, bytes.TrimSpace(data)))
	}
	rec.WallMS = view.WallMS
	if view.Status != serve.JobDone || view.Cancelled {
		return fail(fmt.Errorf("job %s %s (cancelled %v): %s", view.ID, view.Status, view.Cancelled, view.Error))
	}
	rec.Optimal = true
	if item.class == classReduce {
		var res serve.ReduceResult
		if err := json.Unmarshal(view.Result, &res); err != nil {
			return fail(err)
		}
		rec.Weight = res.Opt
		rec.Cache = congestlb.SolveCacheStats{Hits: res.SolveCacheHits, Misses: res.SolveCacheMisses}
		if !res.Correct || !res.AccountingHolds {
			return fail(fmt.Errorf("reduce: correct=%v accounting_holds=%v", res.Correct, res.AccountingHolds))
		}
	} else {
		var res serve.SolveResult
		if err := json.Unmarshal(view.Result, &res); err != nil {
			return fail(err)
		}
		rec.Weight, rec.Steps, rec.Cache, rec.Optimal = res.Weight, res.Steps, res.Cache, res.Optimal
		w, err := congestlb.VerifyIndependent(item.graph, res.Set)
		if err != nil {
			return fail(err)
		}
		if w != res.Weight || !res.Optimal {
			return fail(fmt.Errorf("solve: set weight %d, reported %d, optimal %v", w, res.Weight, res.Optimal))
		}
	}
	rec.OK = true
	return rec
}

// loadgenReport is what the load generator prints after its run.
type loadgenReport struct {
	Requests      []reqRecord `json:"requests"`
	Fingerprint   string      `json:"fingerprint"`
	ElapsedNS     int64       `json:"elapsed_ns"`
	LatenessP50MS float64     `json:"lateness_p50_ms"`
	LatenessP99MS float64     `json:"lateness_p99_ms"`
	LatenessMaxMS float64     `json:"lateness_max_ms"`
	// BacklogFirst and BacklogLast are the median number of unfinished
	// requests as each request fell due, over the first and the last
	// quarter of the arrivals.
	BacklogFirst float64 `json:"backlog_first_quarter"`
	BacklogLast  float64 `json:"backlog_last_quarter"`
}

// childLoadgen is the load generator: a process of its own, so the
// server's goroutines cannot delay its arrivals. It plays the seed's
// schedule for dur against url from nproc connections and checks every
// answer.
func childLoadgen(seed int64, url string, dur time.Duration, stdout io.Writer) error {
	sched, err := buildServeSchedule(seed, dur)
	if err != nil {
		return err
	}
	e := newServeClient(url)
	defer e.client.CloseIdleConnections()
	n := len(sched.reqs)
	rep := loadgenReport{Requests: make([]reqRecord, n)}
	late := make([]float64, n)
	backlog := make([]float64, n)
	queue := make(chan int, n) // sized to the number of sends
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range queue {
				r := sched.reqs[idx]
				sent := time.Since(start)
				rec := e.send(sched.items[r.item], r.tenant)
				rec.Due, rec.Sent, rec.Done = int64(r.at), int64(sent), int64(time.Since(start))
				rep.Requests[idx] = rec
				inflight.Add(-1)
			}
		}()
	}
	for idx, r := range sched.reqs {
		due := start.Add(r.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[idx] = float64(time.Since(due)) / 1e6
		backlog[idx] = float64(inflight.Add(1))
		queue <- idx
	}
	close(queue)
	wg.Wait()
	rep.ElapsedNS = int64(time.Since(start))
	q := max(n/4, 1)
	rep.BacklogFirst, rep.BacklogLast = medianOf(backlog[:q]), medianOf(backlog[n-q:])
	sort.Float64s(late)
	rep.LatenessP50MS, rep.LatenessP99MS, rep.LatenessMaxMS = median(late), late[n*99/100], late[n-1]
	sameWeights(sched, rep.Requests)
	fp := sha256.New()
	for idx, rec := range rep.Requests {
		r := sched.reqs[idx]
		fmt.Fprintf(fp, "%d %s t%d %s weight=%d\n", idx, serveClassNames[rec.Class], r.tenant, sched.items[r.item].key, rec.Weight)
	}
	rep.Fingerprint = hex.EncodeToString(fp.Sum(nil))
	return json.NewEncoder(stdout).Encode(rep)
}

// measureServe starts a server, plays the seed's schedule for dur
// against it from a load-generator process, and sums up the answers.
// The server process's allocation and resident set are the workload's.
func measureServe(seed int64, dur time.Duration, tr *tracer) (phase, error) {
	warm, err := serveWarmItems(seed)
	if err != nil {
		return phase{}, err
	}
	e, err := startServe(warm)
	if err != nil {
		return phase{}, err
	}
	defer e.close()
	rss, err := newRSSWindows(rssWindow)
	if err != nil {
		return phase{}, err
	}
	alloc0 := totalAlloc()
	c, err := startChild("loadgen", seed, e.url, fmt.Sprint(int64(dur)))
	if err != nil {
		return phase{}, err
	}
	type line struct {
		b   []byte
		err error
	}
	got := make(chan line, 1)
	go func() {
		b, _, err := c.line()
		got <- line{b, err}
	}()
	var out line
	var rssErr error
	tick := time.NewTicker(rssWindow / 10)
	for waiting := true; waiting; {
		select {
		case out = <-got:
			waiting = false
		case <-tick.C:
			if rssErr == nil {
				rssErr = rss.tick()
			}
		}
	}
	tick.Stop()
	var p phase
	alloc := totalAlloc() - alloc0
	p.peakRSSMB, err = rss.median()
	if _, werr := c.wait(); werr != nil {
		return p, werr
	}
	for _, err := range []error{out.err, rssErr, err} {
		if err != nil {
			return p, err
		}
	}
	var rep loadgenReport
	if err := json.Unmarshal(out.b, &rep); err != nil {
		return p, fmt.Errorf("load generator output: %w", err)
	}
	n := len(rep.Requests)
	if rep.LatenessP99MS > float64(serveMaxLateness)/1e6 || rep.BacklogLast > 2*rep.BacklogFirst+serveBacklogSlack {
		return p, fmt.Errorf("%w: generator p99 lateness %.1f ms (limit %v); median backlog %.1f in the first quarter, %.1f in the last",
			errOpenLoopInvalid, rep.LatenessP99MS, serveMaxLateness, rep.BacklogFirst, rep.BacklogLast)
	}
	p.elapsed = time.Duration(rep.ElapsedNS)
	p.allocPerOp = float64(alloc) / float64(n)
	p.fingerprint = rep.Fingerprint

	base := time.Now().Add(-p.elapsed) // spans keep the generator's relative times
	at := func(ns int64) time.Time { return base.Add(time.Duration(ns)) }
	var rejected int
	var maxSteps int64
	var jobMS [3][]float64
	var steps [3]int64
	var count [3]int
	var overhead []float64
	var hits, shared, lookups uint64
	for idx, rec := range rep.Requests {
		if rec.Err != "" {
			fmt.Fprintf(os.Stderr, "serve request %d (%s, tenant %d): %s\n", idx, serveClassNames[rec.Class], rec.Tenant, rec.Err)
		}
		if rec.Code == http.StatusTooManyRequests || rec.Code == http.StatusServiceUnavailable {
			rejected++
		}
		p.ops = append(p.ops, opRecord{latency: time.Duration(rec.Done - rec.Due), ok: rec.OK, optimal: rec.Optimal})
		maxSteps = max(maxSteps, rec.Steps)
		if tr != nil {
			root := tr.add("serve.op", idx, 0, at(rec.Due), at(rec.Done))
			tr.add("loadgen.wait", idx, root, at(rec.Due), at(rec.Sent))
			rt := tr.add("http.roundtrip", idx, root, at(rec.Sent), at(rec.Done))
			// The server measures the job's wall time; the span is
			// anchored at the response's arrival.
			tr.add("serve.job", idx, rt, at(rec.Done).Add(-time.Duration(rec.WallMS*1e6)), at(rec.Done))
		}
		if !rec.OK {
			continue
		}
		count[rec.Class]++
		steps[rec.Class] += rec.Steps
		jobMS[rec.Class] = append(jobMS[rec.Class], rec.WallMS)
		overhead = append(overhead, rec.RTMS-rec.WallMS)
		if rec.Class != classReduce {
			hits += rec.Cache.Hits
			shared += rec.Cache.SharedHits
			lookups += rec.Cache.Hits + rec.Cache.Misses
		}
	}
	p.notes = map[string]float64{
		"max_op_over_deadline":  maxLatency(p.ops).Seconds() * 1000 / serveDeadlineMS,
		"max_steps_over_budget": float64(maxSteps) / solverBudget,
		"lateness_p99_ms":       rep.LatenessP99MS,
		"lateness_max_ms":       rep.LatenessMaxMS,
		"backlog_first_quarter": rep.BacklogFirst,
		"backlog_last_quarter":  rep.BacklogLast,
		"requests":              float64(n),
	}
	if tr != nil {
		p.layers = map[string]metric{
			"serve.overhead_ms":       {medianOf(overhead), "ms"},
			"serve.job_ms.dense":      {medianOf(jobMS[classDense]), "ms"},
			"serve.job_ms.sparse":     {medianOf(jobMS[classSparse]), "ms"},
			"serve.job_ms.reduce":     {medianOf(jobMS[classReduce]), "ms"},
			"mis.steps.dense":         {float64(steps[classDense]) / float64(max(count[classDense], 1)), "count"},
			"mis.steps.sparse":        {float64(steps[classSparse]) / float64(max(count[classSparse], 1)), "count"},
			"cache.private_hit_ratio": {ratio(hits-shared, lookups), "ratio"},
			"cache.shared_hit_ratio":  {ratio(shared, lookups), "ratio"},
			"serve.reject_share":      {float64(rejected) / float64(n), "ratio"},
			"loadgen.lateness_p50_ms": {rep.LatenessP50MS, "ms"},
			"loadgen.lateness_max_ms": {rep.LatenessMaxMS, "ms"},
		}
	}
	return p, nil
}

// sameWeights fails every answer for a graph whose answers disagree, on
// either tenant.
func sameWeights(sched *serveSchedule, recs []reqRecord) {
	first := map[int]int64{}
	bad := map[int]bool{}
	for idx, rec := range recs {
		item := sched.reqs[idx].item
		if !rec.OK {
			continue
		}
		if w, seen := first[item]; !seen {
			first[item] = rec.Weight
		} else if w != rec.Weight {
			bad[item] = true
		}
	}
	for idx := range recs {
		if item := sched.reqs[idx].item; bad[item] && recs[idx].OK {
			recs[idx].OK = false
			recs[idx].Err = "duplicate graph answered with a different weight"
		}
	}
}
