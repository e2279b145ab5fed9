package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"csrplus/internal/core"
	"csrplus/internal/graph"
)

// workload runs one traffic shape end to end in dir: it publishes the
// snapshot, boots the servers, drives them and checks the answers.
type workload func(cfg config, dir string) (*report, error)

var workloads = map[string]workload{
	"zipf-topk":      runZipf,
	"multi64-topk":   runMulti64,
	"wire-k2":        runWireK2,
	"ingest-rebuild": runIngest,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

const (
	topK       = 10
	sloMs      = 50.0 // zipf-topk ladder: p99 limit
	adminToken = "perfbench"
	multiQ     = 64
	wireQ      = 8
)

// conns is the load generator's connection cap per server: one per core.
func conns() int { return runtime.NumCPU() }

// env is the shared set-up of one run: the seeded graph on disk and the
// snapshot csrserver published from it.
type env struct {
	cfg       config
	dir       string
	graphPath string
	n         int
	rep       *report
	cl        cluster
}

// newEnv generates the seeded R-MAT graph and writes it as an edge list.
func newEnv(cfg config, dir string) (*env, error) {
	g, err := graph.RMAT(cfg.fix.logn, cfg.fix.m, graph.DefaultRMAT, cfg.seed)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "graph.txt")
	if err := g.Save(path); err != nil {
		return nil, err
	}
	// The graph lives on in the file only: collect it and the generator's
	// garbage now, so no collection in this process competes with the
	// servers while they are measured.
	n := g.N()
	runtime.GC()
	return &env{cfg: cfg, dir: dir, graphPath: path, n: n, rep: &report{correct: true}}, nil
}

// graphArgs name the graph and the index shape. Snapshot boots take the
// shape from the snapshot; -r and -c still size any rebuild.
func (e *env) graphArgs() []string {
	return []string{"-graph", e.graphPath, "-n", strconv.Itoa(e.n),
		"-r", strconv.Itoa(e.cfg.fix.rank), "-c", strconv.FormatFloat(e.cfg.fix.damp, 'g', -1, 64)}
}

// publish has csrserver precompute the index and publish it (extra
// selects the snapshot layout), records build_s — launch until /readyz —
// and stops the process. build_s is one ~20 s sample of the host's speed
// per run, too few to hold a 25 % bound on a shared host, so it is
// printed here and reported as a per-layer metric by the traced run.
func (e *env) publish(extra ...string) error {
	s, d, err := boot("publish", e.cfg.bin, e.dir, 2*time.Minute, append(e.graphArgs(), extra...)...)
	if err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	s.stop()
	e.rep.addExtra("build_s", "s", d.Seconds())
	return nil
}

// bootMono boots a monolithic server from the published snapshot
// directory cfg.fix.boots times, records the median as setup_s, and
// keeps the last one running.
func (e *env) bootMono(snapDir string, extra ...string) (*server, error) {
	var times []float64
	var s *server
	for i := 0; i < e.cfg.fix.boots; i++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		var err error
		s, d, err = boot("csrserver", e.cfg.bin, e.dir, time.Minute, append(append(e.graphArgs(), "-snapshots", snapDir), extra...)...)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	e.setup(times)
	return e.cl.add(s), nil
}

// setup records setup_s: the median of a run's boots.
func (e *env) setup(times []float64) {
	e.rep.note("boots (s): %.3f", times)
	e.rep.add("setup_s", "s", median(times))
}

// bootSnapshot is the snapshot the publishing server wrote into a fresh
// directory; a rebuild under ingest publishes later generations.
func bootSnapshot(snapDir string) string { return filepath.Join(snapDir, core.SnapshotName(1)) }

// windowReads is the size of the windows read latency is summarised
// over: 200 reads leave 20 beyond p90.
const windowReads = 200

// readStats adds the read-latency metrics over successful reads. p50 and
// p90 are medians over consecutive windows of windowReads reads, in the
// order they were sent (the remainder joins the last window; a run with
// fewer than two windows is one window): on the shared box one second
// of stall otherwise supplies most of a run's top decile. Only p50 is
// gated. p90 and the pooled p99 are printed: on zipf-topk they moved by
// more than the largest bound between runs (README.md, "Steadiness").
func readStats(rep *report, rs []*result) {
	var lat []float64
	for _, r := range rs {
		if !r.req.write() && r.ok() {
			lat = append(lat, ms(r.latency()))
		}
	}
	var windows [][]float64
	for i := 0; i < len(lat); i += windowReads {
		if len(lat)-i < 2*windowReads {
			windows = append(windows, lat[i:])
			break
		}
		windows = append(windows, lat[i:i+windowReads])
	}
	windowed := func(q float64) float64 {
		var ps []float64
		for _, w := range windows {
			ps = append(ps, percentile(append([]float64(nil), w...), q))
		}
		return median(ps)
	}
	rep.add("query_p50_ms", "ms", windowed(0.50))
	rep.addExtra("query_p90_ms", "ms", windowed(0.90))
	rep.addExtra("query_p99_ms", "ms", percentile(lat, 0.99))
	rep.note("read latency samples: %d in %d windows", len(lat), len(windows))
}

// account adds rs to the attempted/failed counts and returns the
// successful reads.
func account(rep *report, rs []*result) []*result {
	var okReads []*result
	for _, r := range rs {
		rep.attempted++
		if !r.ok() {
			rep.failed++
			continue
		}
		if !r.req.write() {
			okReads = append(okReads, r)
		}
	}
	return okReads
}

// verifySample checks a seeded sample of successful reads against the
// oracle; wrong answers become failed ops.
func verifySample(rep *report, snapshot string, okReads []*result, size int, rng *rand.Rand) error {
	o, err := openOracle(snapshot)
	if err != nil {
		return err
	}
	defer o.close()
	var sample []*result
	for _, i := range rng.Perm(len(okReads)) {
		if len(sample) == size {
			break
		}
		sample = append(sample, okReads[i])
	}
	wrong, first := o.verify(sample)
	rep.failed += wrong
	if wrong > 0 {
		rep.correct = false
		rep.note("oracle: %d of %d sampled answers wrong; first: %v", wrong, len(sample), first)
	} else {
		rep.note("oracle: %d sampled answers match the in-process reference", len(sample))
	}
	if len(sample) == 0 {
		rep.correct = false
		rep.note("oracle: no successful reads to check")
	}
	return nil
}

// streams are the seeded request generators. Each workload draws from
// its own rng so adding a workload never shifts another's stream.
func streamRNG(seed int64, salt int64) *rand.Rand { return rand.New(rand.NewSource(seed*7919 + salt)) }

// zipfS is the popularity skew of zipf-topk. At 1.1 the default
// 1024-entry cache hits about half the reads, so the median read sits on
// the boundary between hits and misses and moved from 1.3 to 2.0 ms
// between seeds; at 1.2 it hits about 70% and the median is a hit.
const zipfS = 1.2

// zipfStream draws single-source reads whose node popularity is
// Zipf(zipfS) over a seeded permutation of the node ids.
func zipfStream(rng *rand.Rand, n int) func() *request {
	perm := rng.Perm(n)
	z := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	return func() *request { return &request{nodes: []int{perm[z.Uint64()]}, k: topK} }
}

// uniformStream draws reads of q uniform nodes.
func uniformStream(rng *rand.Rand, n, q int) func() *request {
	return func() *request {
		nodes := make([]int, q)
		for i := range nodes {
			nodes[i] = rng.Intn(n)
		}
		return &request{nodes: nodes, k: topK}
	}
}

func take(next func() *request, count int) []*request {
	out := make([]*request, count)
	for i := range out {
		out[i] = next()
	}
	return out
}

// runZipf: open loop at a fixed rate of Zipf single-source reads against
// a monolithic server with its default cache and batcher, then a fixed
// rate ladder for max_rps_at_slo.
func runZipf(cfg config, dir string) (*report, error) {
	e, err := newEnv(cfg, dir)
	if err != nil {
		return nil, err
	}
	defer e.cl.stopAll()
	snapDir := filepath.Join(dir, "snap")
	if err := e.publish("-snapshots", snapDir); err != nil {
		return nil, err
	}
	s, err := e.bootMono(snapDir)
	if err != nil {
		return nil, err
	}
	rep := e.rep
	next := zipfStream(streamRNG(cfg.seed, 1), e.n)
	lg := newLoadgen(conns(), "")
	defer lg.close()
	rate := cfg.fix.rate
	lg.openLoop(s.url(""), rate, take(next, int(rate))) // one second of warm-up: page in the mapping, fill the cache
	rs := lg.openLoop(s.url(""), rate, take(next, int(rate*cfg.seconds)))
	okReads := account(rep, rs)
	readStats(rep, rs)
	rep.add("throughput_qps", "1/s", float64(len(okReads))/spanSeconds(rs))

	// Ladder: each step offers a fixed rate for stepSeconds; the highest
	// step whose p99 (failures count as misses) stays within the SLO and
	// whose last request is not queued past it is max_rps_at_slo.
	const stepSeconds = 1.0
	best := 0.0
	for _, r := range cfg.fix.ladder {
		step := lg.openLoop(s.url(""), r, take(next, int(r*stepSeconds)))
		okReads = append(okReads, account(rep, step)...)
		if !meetsSLO(step) {
			break
		}
		best = r
	}
	rep.addExtra("max_rps_at_slo", "1/s", best)
	rep.add("server_rss_mb", "MiB", e.cl.peakMB())
	lateness(rep, rs)
	e.cl.stopAll()
	return rep, verifySample(rep, bootSnapshot(snapDir), okReads, 48, streamRNG(cfg.seed, 101))
}

func meetsSLO(step []*result) bool {
	lat := make([]float64, len(step))
	for i, r := range step {
		lat[i] = math.Inf(1)
		if r.ok() {
			lat[i] = ms(r.latency())
		}
	}
	last := lat[len(lat)-1]
	return percentile(lat, 0.99) <= sloMs && last <= sloMs
}

// lateness reports how far behind its schedule the generator dispatched.
func lateness(rep *report, rs []*result) {
	late := make([]float64, len(rs))
	for i, r := range rs {
		late[i] = ms(r.late)
	}
	rep.addExtra("loadgen_late_p99_ms", "ms", percentile(late, 0.99))
}

// spanSeconds is the wall time from the first due time to the last answer.
func spanSeconds(rs []*result) float64 {
	first, last := rs[0].due, rs[0].done
	for _, r := range rs {
		if r.due.Before(first) {
			first = r.due
		}
		if r.done.After(last) {
			last = r.done
		}
	}
	return last.Sub(first).Seconds()
}

// runMulti64: closed loop, two clients, each request the paper's
// multi-source aggregate query over 64 uniform nodes.
func runMulti64(cfg config, dir string) (*report, error) {
	e, err := newEnv(cfg, dir)
	if err != nil {
		return nil, err
	}
	defer e.cl.stopAll()
	snapDir := filepath.Join(dir, "snap")
	if err := e.publish("-snapshots", snapDir); err != nil {
		return nil, err
	}
	s, err := e.bootMono(snapDir)
	if err != nil {
		return nil, err
	}
	return closedLoopRun(e, s, uniformStream(streamRNG(cfg.seed, 2), e.n, multiQ), bootSnapshot(snapDir), 8)
}

// closedLoopRun drives base with conns() clients for the run, reports
// latency and throughput, stops the servers and checks a sample.
func closedLoopRun(e *env, s *server, next func() *request, snapshot string, samples int) (*report, error) {
	rep := e.rep
	lg := newLoadgen(conns(), "")
	defer lg.close()
	lg.closedLoop(s.url(""), conns(), time.Second, next) // warm-up
	rs, elapsed := lg.closedLoop(s.url(""), conns(), time.Duration(e.cfg.seconds*float64(time.Second)), next)
	okReads := account(rep, rs)
	readStats(rep, rs)
	rep.add("throughput_qps", "1/s", float64(len(okReads))/elapsed.Seconds())
	rep.add("server_rss_mb", "MiB", e.cl.peakMB())
	lateness(rep, rs)
	e.cl.stopAll()
	return rep, verifySample(rep, snapshot, okReads, samples, streamRNG(e.cfg.seed, 102))
}

// runWireK2: two -shardworker processes behind a -shardaddrs router,
// closed loop of 8-node queries. The oracle is the monolithic index the
// shards were sliced from: remote answers are bitwise-equal by design.
func runWireK2(cfg config, dir string) (*report, error) {
	e, err := newEnv(cfg, dir)
	if err != nil {
		return nil, err
	}
	defer e.cl.stopAll()
	snapDir := filepath.Join(dir, "shards")
	mono := filepath.Join(dir, "mono.csrx")
	if err := e.publish("-shards", "2", "-snapshots", snapDir, "-saveindex", mono); err != nil {
		return nil, err
	}
	var times []float64
	var router *server
	for i := 0; i < cfg.fix.boots; i++ {
		e.cl.stopAll()
		launched := time.Now()
		var addrs []string
		for w := 0; w < 2; w++ {
			ws, err := startServer(fmt.Sprintf("worker-%d", w), cfg.bin, dir, "-shardworker", strconv.Itoa(w), "-snapshots", snapDir)
			if err != nil {
				return nil, err
			}
			e.cl.add(ws)
			addrs = append(addrs, "http://"+ws.addr)
		}
		for _, ws := range e.cl.servers {
			if _, err := ws.waitReady(launched, time.Minute); err != nil {
				return nil, err
			}
		}
		router, err = startServer("router", cfg.bin, dir, "-shardaddrs", addrs[0]+","+addrs[1])
		if err != nil {
			return nil, err
		}
		e.cl.add(router)
		d, err := router.waitReady(launched, time.Minute)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	e.setup(times)
	return closedLoopRun(e, router, uniformStream(streamRNG(cfg.seed, 3), e.n, wireQ), mono, 24)
}

// ingest-rebuild sizing: reads and write batches share one open-loop
// schedule; the drift budget is crossed after about a third of the
// measured seconds, and a fixed number of operations follows the first
// committed rebuild.
const (
	ingestReadRate  = 100.0 // reads/s
	ingestWriteRate = 4.0   // edge batches/s
	ingestBatch     = 5     // edges per batch
	ingestPostOps   = 312   // operations after the first commit
	ingestMaxWait   = 90 * time.Second
)

// runIngest: snapshot boot with a WAL and a drift budget; uniform
// single-source reads beside authenticated edge batches, through the
// first drift-triggered rebuild and a fixed tail of operations after it.
func runIngest(cfg config, dir string) (*report, error) {
	e, err := newEnv(cfg, dir)
	if err != nil {
		return nil, err
	}
	defer e.cl.stopAll()
	snapDir := filepath.Join(dir, "snap")
	if err := e.publish("-snapshots", snapDir); err != nil {
		return nil, err
	}
	// The budget is the drift that crossingEdges uniform edges accrue at
	// driftPerEdge, measured on this fixture (README.md).
	crossingEdges := ingestWriteRate * ingestBatch * cfg.seconds / 3
	budget := driftPerEdge * crossingEdges
	walDir := filepath.Join(dir, "wal")
	s, err := e.bootMono(snapDir, "-waldir", walDir, "-admintoken", adminToken, "-driftbudget", strconv.FormatFloat(budget, 'g', -1, 64))
	if err != nil {
		return nil, err
	}
	rep := e.rep
	n := e.n
	rng := streamRNG(cfg.seed, 4)
	reads := uniformStream(rng, n, 1)
	every := int(math.Round(ingestReadRate / ingestWriteRate))
	next := func(i int) *request {
		if i%every == every-1 {
			body, _ := json.Marshal(map[string]any{"edges": randomEdges(rng, n, ingestBatch)}) // ints always encode
			return &request{body: body}
		}
		return reads()
	}

	gen := newGenWatch(s)
	defer gen.stop()
	lg := newLoadgen(conns(), adminToken)
	defer lg.close()
	rate := ingestReadRate + ingestWriteRate
	var committedAt int
	rs := lg.openLoopUntil(s.url(""), rate, next, func(i int) bool {
		if committedAt == 0 && gen.committed() {
			committedAt = i
		}
		if committedAt == 0 {
			return time.Duration(float64(i)/rate*float64(time.Second)) < ingestMaxWait
		}
		return i < committedAt+ingestPostOps
	})
	gen.stop()
	commitAt := gen.committedAt()
	okReads := account(rep, rs)
	readStats(rep, rs)
	rep.add("throughput_qps", "1/s", float64(len(okReads))/spanSeconds(rs))
	rep.add("server_rss_mb", "MiB", gen.peakMB())
	if committedAt == 0 {
		rep.note("no rebuild committed within %v", ingestMaxWait)
	}
	if s.exited() {
		rep.note("server exit: %s", s.exitReport())
	}
	trigger, err := ingestStats(rep, rs, budget, commitAt)
	if err != nil {
		rep.correct = false
		rep.failed++
		rep.note("ingest check: %v", err)
	}
	lateness(rep, rs)
	e.cl.stopAll()
	// Answers before the trigger come from the published snapshot.
	var pre []*result
	for _, r := range okReads {
		if trigger.IsZero() || r.done.Before(trigger) {
			pre = append(pre, r)
		}
	}
	if err := verifySample(rep, bootSnapshot(snapDir), pre, 32, streamRNG(cfg.seed, 104)); err != nil {
		return nil, err
	}
	rep.addExtra("ops_failed_frac", "ratio", float64(rep.failed)/float64(rep.attempted))
	return rep, nil
}

// driftPerEdge is the drift bound one uniform random edge adds on the
// full fixture's graph, measured from the acks (README.md, "sizing").
const driftPerEdge = 9.0

// ingestStats checks the write acks and reports the ingest metrics. It
// returns the due time of the ack whose drift crossed the budget.
func ingestStats(rep *report, rs []*result, budget float64, commitAt time.Time) (time.Time, error) {
	type ack struct {
		Seq   uint64  `json:"seq"`
		Drift float64 `json:"drift_bound"`
	}
	var (
		ackLat            []float64
		trigger           time.Time
		maxSeqBefore      = map[*result]uint64{}
		acks              = map[*result]ack{}
		writes, okWrites  []*result
		degraded, okReads int
	)
	for _, r := range rs {
		if !r.req.write() {
			continue
		}
		writes = append(writes, r)
		if !r.ok() {
			continue
		}
		var a ack
		if err := json.Unmarshal(r.body, &a); err != nil {
			return trigger, fmt.Errorf("bad ack body: %v", err)
		}
		acks[r] = a
		okWrites = append(okWrites, r)
		ackLat = append(ackLat, ms(r.latency()))
		if a.Drift > budget && (trigger.IsZero() || r.done.Before(trigger)) {
			trigger = r.done
		}
	}
	// Acked seqs strictly increase: a write's seq exceeds every seq acked
	// before it was sent.
	for _, w := range okWrites {
		for _, v := range okWrites {
			if v.done.Before(w.due) && acks[v].Seq > maxSeqBefore[w] {
				maxSeqBefore[w] = acks[v].Seq
			}
		}
		if acks[w].Seq <= maxSeqBefore[w] {
			return trigger, fmt.Errorf("ack seq %d not above an earlier ack's %d", acks[w].Seq, maxSeqBefore[w])
		}
	}
	// Between the crossing ack and the commit every read is degraded and
	// carries the drift bound; the margin covers the poll interval.
	for _, r := range rs {
		if r.req.write() || !r.ok() {
			continue
		}
		a, err := parseAnswer(r.body)
		if err != nil {
			return trigger, err
		}
		okReads++
		if a.Degraded != nil {
			degraded++
		}
		if !trigger.IsZero() && r.due.After(trigger) && (commitAt.IsZero() || r.done.Before(commitAt.Add(-4*watchEvery))) &&
			(a.Degraded == nil || a.Degraded.DriftBound <= budget) {
			return trigger, fmt.Errorf("read due %v, after the drift budget was crossed, carries no drift bound past it: %s", r.due.Format("15:04:05.000"), r.body)
		}
	}
	rep.addExtra("ingest_ack_p50_ms", "ms", percentile(ackLat, 0.50))
	rep.addExtra("ingest_ack_p99_ms", "ms", percentile(ackLat, 0.99))
	rebuild := math.NaN()
	if !trigger.IsZero() && !commitAt.IsZero() {
		rebuild = commitAt.Sub(trigger).Seconds()
	}
	rep.addExtra("rebuild_s", "s", rebuild)
	rep.addExtra("degraded_read_frac", "ratio", float64(degraded)/float64(max(1, okReads)))
	rep.note("writes: %d sent, %d acked", len(writes), len(okWrites))
	for _, w := range okWrites {
		if a := acks[w]; a.Drift > 0 && !w.done.After(trigger) {
			rep.note("drift per edge at seq %d: %.4g", a.Seq, a.Drift/float64(a.Seq))
		}
	}
	return trigger, nil
}

const watchEvery = 20 * time.Millisecond

// genWatch polls a server's /readyz and records when its serving
// generation first moves past the boot generation. It also samples the
// server's peak RSS, which a crashed process no longer reports.
type genWatch struct {
	mu   sync.Mutex
	at   time.Time
	hwm  float64 // last VmHWM read while the server was alive
	quit chan struct{}
	done chan struct{}
}

func newGenWatch(s *server) *genWatch {
	w := &genWatch{quit: make(chan struct{}), done: make(chan struct{})}
	client := &http.Client{Timeout: time.Second}
	go func() {
		defer close(w.done)
		t := time.NewTicker(watchEvery)
		defer t.Stop()
		for {
			select {
			case <-w.quit:
				return
			case <-t.C:
			}
			if mb := s.hwmMB(); mb > 0 {
				w.mu.Lock()
				w.hwm = mb
				w.mu.Unlock()
			}
			if w.committed() {
				continue
			}
			resp, err := client.Get(s.url("/readyz"))
			if err != nil {
				continue
			}
			var body struct {
				Generation uint64 `json:"generation"`
			}
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err == nil && body.Generation > 1 {
				w.mu.Lock()
				w.at = time.Now()
				w.mu.Unlock()
			}
		}
	}()
	return w
}

// peakMB is the server's VmHWM as last seen alive.
func (w *genWatch) peakMB() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hwm
}

func (w *genWatch) committedAt() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.at
}

func (w *genWatch) committed() bool { return !w.committedAt().IsZero() }

func (w *genWatch) stop() {
	select {
	case <-w.quit:
	default:
		close(w.quit)
	}
	<-w.done
}
