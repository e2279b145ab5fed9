package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"csrplus/internal/cache"
	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/graph"
	"csrplus/internal/ingest"
	"csrplus/internal/reload"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
	"csrplus/internal/sparse"
	"csrplus/internal/svd"
	"csrplus/internal/topk"
	"csrplus/internal/wire"
)

// span is one timed call at a layer boundary. Req ties the spans of one
// request together; Parent is the enclosing span's id when the call site
// knows it (engine passes serve whole batches, so they are matched to
// requests afterwards by time and query nodes).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	nodes  []int
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them when the run ends.
// With on false it records nothing, which is the untraced baseline the
// tracing overhead is measured against.
type tracer struct {
	on    bool
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) record(name string, req, parent int64, start, end time.Time, nodes []int) {
	if t.on {
		t.recordAs(t.reserve(), name, req, parent, start, end, nodes)
	}
}

// reserve hands out a span id before the span ends, so children can name
// their parent while it is still open.
func (t *tracer) reserve() int64 { return t.ids.Add(1) }

func (t *tracer) recordAs(id int64, name string, req, parent int64, start, end time.Time, nodes []int) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), nodes: nodes})
	t.mu.Unlock()
}

func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

type reqKey struct{}

// timeCalls runs f reps times and returns each call's duration in ms.
func timeCalls(reps int, f func() error) ([]float64, error) {
	out := make([]float64, reps)
	for i := range out {
		start := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out[i] = ms(time.Since(start))
	}
	return out, nil
}

// runTrace is the traced run. It first runs the workload end to end over
// HTTP with tracing off (half the seconds) for the untraced latency, then
// rebuilds the precompute layer by layer in-process, times the engine
// pass, column copy and select at |Q| in {1, 8, 64}, and replays the
// workload's stream in-process through serve.NewRanked (and the wire
// and ingest layers) twice: once recording spans, once not.
func runTrace(cfg config, w workload, dir string) (*report, error) {
	half := cfg
	half.seconds = cfg.seconds / 2
	e2e, err := w(half, dir)
	if err != nil {
		return nil, fmt.Errorf("untraced end-to-end pass: %w", err)
	}
	rep := &report{correct: e2e.correct, attempted: e2e.attempted, failed: e2e.failed}
	httpP50 := find(e2e.metrics, "query_p50_ms")
	rep.add("loadgen.late_p99_ms", "ms", find(e2e.extra, "loadgen_late_p99_ms"))
	rep.add("build_s", "s", find(e2e.extra, "build_s"))

	n := cfg.fix.n()
	graphPath := filepath.Join(dir, "graph.txt")
	snapshot := bootSnapshot(filepath.Join(dir, "snap"))
	if cfg.workload == "wire-k2" {
		snapshot = filepath.Join(dir, "mono.csrx")
	}

	var g *graph.Graph
	loads, err := timeCalls(3, func() (err error) { g, err = graph.Load(graphPath, n); return err })
	if err != nil {
		return nil, err
	}
	rep.add("graph.load_ms", "ms", median(loads))
	if err := precomputeLedger(rep, g, cfg); err != nil {
		return nil, err
	}

	// Snapshot publish and map, over the index csrserver published.
	heap, err := readHeapIndex(snapshot)
	if err != nil {
		return nil, err
	}
	pubDir := filepath.Join(dir, "trace-snap")
	write, err := timeCalls(1, func() error { _, _, err := core.WriteSnapshot(pubDir, heap); return err })
	if err != nil {
		return nil, err
	}
	rep.add("core.snapshot_write_ms", "ms", write[0])
	maps, err := timeCalls(5, func() error {
		ix, err := core.MapIndex(snapshot)
		if err == nil {
			err = ix.Close()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.add("core.snapshot_map_ms", "ms", median(maps))
	ix, err := core.MapIndex(snapshot)
	if err != nil {
		return nil, err
	}
	defer ix.Close()

	if err := engineLedger(rep, ix, cfg); err != nil {
		return nil, err
	}

	// The workload's own stream, in-process: recording off, then on.
	untraced, err := replay(cfg, ix, heap, g, dir, newTracer(false))
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	traced, err := replay(cfg, ix, heap, g, dir, tr)
	if err != nil {
		return nil, err
	}
	for _, out := range []*replayOut{untraced, traced} {
		rep.attempted += out.attempted
		rep.failed += out.failed
		if !out.correct {
			rep.correct = false
		}
	}
	traced.report(rep, tr)
	rep.add("http.overhead_p50_ms", "ms", httpP50-traced.p50)
	rep.add("trace.overhead_p50_ms", "ms", traced.p50-untraced.p50)

	spans := filepath.Join(cfg.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	rep.note("spans written to %s (%d spans)", spans, len(tr.spans))
	return rep, nil
}

// precomputeLedger times the precompute layer by layer, as
// core.Precompute composes it: transition matrix, one SpMM pair and one
// orthonormalisation of the n x (r+8) sketch (the steps svd.Truncated
// repeats per power iteration), the whole truncated SVD, the subspace
// solve and Z.
func precomputeLedger(rep *report, g *graph.Graph, cfg config) error {
	var q *sparse.CSR
	trans, err := timeCalls(3, func() (err error) { q, err = g.Transition(); return err })
	if err != nil {
		return err
	}
	rep.add("graph.transition_ms", "ms", median(trans))
	sketch := randomMat(g.N(), cfg.fix.rank+8, cfg.seed)
	var y *dense.Mat
	spmm, _ := timeCalls(3, func() error { y = q.MulDenseT(q.MulDense(sketch)); return nil })
	rep.add("sparse.muldense_ms", "ms", median(spmm))
	orth, err := timeCalls(1, func() error { _, err := dense.Orthonormalize(y, 0); return err })
	if err != nil {
		return err
	}
	rep.add("dense.orthonormalize_ms", "ms", orth[0])
	var fac *svd.Result
	svdT, err := timeCalls(1, func() (err error) { fac, err = svd.Truncated(q, cfg.fix.rank, svd.Options{}); return err })
	if err != nil {
		return err
	}
	rep.add("svd.truncated_s", "s", svdT[0]/1000)
	// As in core.Precompute: the factors of M = Qᵀ swap U and V.
	var p *dense.Mat
	solve, err := timeCalls(1, func() (err error) {
		p, _, err = core.SolveSubspace(fac.V, fac.S, fac.U, cfg.fix.damp, core.DefaultEps)
		return err
	})
	if err != nil {
		return err
	}
	rep.add("core.solve_ms", "ms", solve[0])
	buildz, _ := timeCalls(1, func() error { core.BuildZ(fac.V, fac.S, p); return nil })
	rep.add("core.buildz_ms", "ms", buildz[0])
	return nil
}

func find(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

func randomMat(rows, cols int, seed int64) *dense.Mat {
	rng := rand.New(rand.NewSource(seed))
	m := dense.NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// readHeapIndex decodes a snapshot onto the heap. core.Dynamic keeps the
// index's U, so the ingest layer is traced over a heap copy: with the
// mapped boot index its first write after a rebuild faults (README.md).
func readHeapIndex(path string) (*core.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadIndex(f)
}

// engineLedger is the re-anchor table: engine pass (through a wrapped
// serve.Ranked.Query closure), column copy and select at |Q| in
// {1, 8, 64}, each query set fresh so the cache never answers.
func engineLedger(rep *report, ix *core.Index, cfg config) error {
	rng := streamRNG(cfg.seed, 5)
	n := ix.N()
	fmt.Printf("# re-anchor ledger (n=%d r=%d): |Q|, engine pass ms, column copy ms, select ms\n", n, ix.Rank())
	for _, sz := range []struct{ q, reps int }{{1, 20}, {8, 10}, {64, 5}} {
		tr := newTracer(true)
		sv := newServe(ix, tr, nil)
		var copies, selects []float64
		for i := 0; i < sz.reps; i++ {
			nodes := uniformStream(rng, n, sz.q)().nodes
			if _, err := sv.Search(context.Background(), nodes, topK); err != nil {
				sv.Close()
				return err
			}
			m, err := ix.QueryRankInto(context.Background(), nodes, 0, nil, nil)
			if err != nil {
				sv.Close()
				return err
			}
			start := time.Now()
			cols := columns(m)
			copies = append(copies, ms(time.Since(start)))
			start = time.Now()
			selectTop(cols, nodes, topK)
			selects = append(selects, ms(time.Since(start)))
		}
		sv.Close()
		var pass []float64
		for _, s := range tr.named("core.query") {
			pass = append(pass, ms(s.dur()))
		}
		engine, cp, sel := median(pass), median(copies), median(selects)
		fmt.Printf("# |Q|=%-3d %10.3f %10.3f %10.3f\n", sz.q, engine, cp, sel)
		rep.add(fmt.Sprintf("core.query_q%d_ms", sz.q), "ms", engine)
		rep.add(fmt.Sprintf("dense.colcopy_q%d_ms", sz.q), "ms", cp)
		rep.add(fmt.Sprintf("topk.select_q%d_ms", sz.q), "ms", sel)
	}
	// Bytes the |Q|=64 pass must move: Z (n x r), the gathered U rows and
	// the n x |Q| output, 8 bytes each — computed, not measured.
	rep.add("core.query_q64_bytes", "B", float64(8*(n*ix.Rank()+64*ix.Rank()+n*64)))
	return nil
}

// newServe composes the serving layer as csrserver does (default batcher
// and admission settings), with the engine closure wrapped to record
// each pass.
func newServe(ix *core.Index, tr *tracer, lru *cache.LRU) *serve.Server {
	query := func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
		start := time.Now()
		m, err := ix.QueryRankInto(ctx, queries, rank, scratch, nil)
		tr.record("core.query", 0, 0, start, time.Now(), append([]int(nil), queries...))
		return m, err
	}
	return serve.NewRanked(serve.Ranked{N: ix.N(), Rank: ix.Rank(), Bound: ix.TruncationBound, Query: query}, serveConfig(lru))
}

// serveConfig is csrserver's default serving configuration.
func serveConfig(lru *cache.LRU) serve.Config {
	cfg := serve.Config{MaxBatch: 32, Linger: 2 * time.Millisecond, MaxPending: 1024, MaxK: serve.DefaultMaxK, Timeout: 5 * time.Second}
	if lru != nil { // a nil *LRU must not become a non-nil interface value
		cfg.Cache = lru
	}
	return cfg
}

// replayOut is what one in-process replay measured.
type replayOut struct {
	attempted, failed int
	correct           bool
	p50               float64 // median top-level call latency, ms
	searches          []searchCall
	lru               *cache.LRU
	hits0, misses0    int64 // cache counters before the measured replay
	sv                *serve.Server
	wire              *wireProbe
	ing               *ingestProbe
}

type searchCall struct {
	id      int64
	nodes   []int
	start   time.Time
	end     time.Time
	cached  bool
	matches []serve.Match
	child   time.Duration // the engine or router call that answered it; 0 until matched
}

// replay drives the workload's seeded stream in-process for half the
// run's seconds, plus the wire and ingest probes every traced run
// carries so each layer's metric exists on every workload.
func replay(cfg config, ix, heap *core.Index, g *graph.Graph, dir string, tr *tracer) (*replayOut, error) {
	out := &replayOut{correct: true}
	d := time.Duration(cfg.seconds / 2 * float64(time.Second))
	n := ix.N()
	var err error
	if out.wire, err = newWireProbe(ix, tr); err != nil {
		return nil, err
	}
	defer out.wire.close()
	var lat []float64
	var mu sync.Mutex
	var ids atomic.Int64
	searchOnce := func(sv *serve.Server, nodes []int) {
		id := ids.Add(1)
		start := time.Now()
		res, err := sv.Search(context.Background(), nodes, topK)
		end := time.Now()
		tr.record("serve.search", id, 0, start, end, nil)
		mu.Lock()
		defer mu.Unlock()
		out.attempted++
		if err != nil {
			out.failed++
			return
		}
		lat = append(lat, ms(end.Sub(start)))
		out.searches = append(out.searches, searchCall{id: id, nodes: nodes, start: start, end: end, cached: res.Cached, matches: res.Matches})
	}
	switch cfg.workload {
	case "zipf-topk", "multi64-topk", "ingest-rebuild":
		out.lru = cache.New(1024)
		out.sv = newServe(ix, tr, out.lru)
		defer out.sv.Close()
		switch cfg.workload {
		case "zipf-topk":
			// The end-to-end stream: one unmeasured second fills the
			// cache, as the HTTP run's warm-up does.
			next := zipfStream(streamRNG(cfg.seed, 1), n)
			for _, r := range take(next, int(cfg.fix.rate)) {
				if _, err := out.sv.Search(context.Background(), r.nodes, topK); err != nil {
					return nil, err
				}
			}
			h0, m0 := out.lru.Stats()
			out.hits0, out.misses0 = h0, m0
			reqs := take(next, int(cfg.fix.rate*d.Seconds()))
			fixedRate(conns(), cfg.fix.rate, below(len(reqs)), index, func(i int) { searchOnce(out.sv, reqs[i].nodes) })
		case "multi64-topk":
			next := locked(uniformStream(streamRNG(cfg.seed, 2), n, multiQ))
			backToBack(conns(), d, func(time.Time) { searchOnce(out.sv, next().nodes) })
		case "ingest-rebuild":
			// Reads beside edge batches, at the end-to-end mix, against a
			// service over a heap index (no rebuild: its phases are the
			// precompute ledger above).
			if out.ing, err = newIngestProbe(g, heap, dir); err != nil {
				return nil, err
			}
			rng := streamRNG(cfg.seed, 4)
			reads := uniformStream(rng, n, 1)
			every := int(ingestReadRate / ingestWriteRate)
			rate := ingestReadRate + ingestWriteRate
			ops := make([][]ingest.Edge, int(rate*d.Seconds())) // nil: a read
			var nodes [][]int
			for i := range ops {
				if i%every == every-1 {
					ops[i] = randomEdges(rng, n, ingestBatch)
					nodes = append(nodes, nil)
				} else {
					nodes = append(nodes, reads().nodes)
				}
			}
			fixedRate(conns(), rate, below(len(ops)), index, func(i int) {
				if ops[i] == nil {
					searchOnce(out.sv, nodes[i])
					return
				}
				err := out.ing.append(ops[i], tr, ids.Add(1))
				mu.Lock()
				defer mu.Unlock()
				out.attempted++
				if err != nil {
					out.failed++
				}
			})
		}
		if err := checkInProcess(ix, out); err != nil {
			out.correct = false
			fmt.Printf("# in-process oracle: %v\n", err)
		}
	case "wire-k2":
		next := locked(uniformStream(streamRNG(cfg.seed, 3), n, wireQ))
		backToBack(conns(), d, func(time.Time) {
			nodes := next().nodes
			start := time.Now()
			err := out.wire.topK(nodes, ids.Add(1))
			mu.Lock()
			defer mu.Unlock()
			out.attempted++
			if err != nil {
				out.failed++
				return
			}
			lat = append(lat, ms(time.Since(start)))
		})
		out.searches, out.sv, out.lru = out.wire.searches, out.wire.sv, out.wire.lru
	}
	if cfg.workload != "wire-k2" {
		// Fixed wire probe so the wire layer's metrics exist everywhere.
		next := uniformStream(streamRNG(cfg.seed, 6), n, wireQ)
		for i := 0; i < 20; i++ {
			if err := out.wire.topK(next().nodes, ids.Add(1)); err != nil {
				return nil, err
			}
		}
	}
	if out.ing == nil {
		// Fixed ingest probe so the ingest layer's metrics exist everywhere.
		if out.ing, err = newIngestProbe(g, heap, dir); err != nil {
			return nil, err
		}
		rng := streamRNG(cfg.seed, 7)
		for i := 0; i < 40; i++ {
			if err := out.ing.append(randomEdges(rng, n, ingestBatch), tr, ids.Add(1)); err != nil {
				return nil, err
			}
		}
	}
	defer out.ing.close()
	if err := out.ing.ledger(streamRNG(cfg.seed, 8), ix); err != nil {
		return nil, err
	}
	out.p50 = median(lat)
	return out, nil
}

// checkInProcess verifies the first few in-process answers against the
// oracle.
func checkInProcess(ix *core.Index, out *replayOut) error {
	o := &oracle{ix: ix}
	for i, c := range out.searches {
		if i >= 8 {
			break
		}
		want, err := o.expect(c.nodes, topK)
		if err != nil {
			return err
		}
		if err := check(answerOf(c.matches), want); err != nil {
			return err
		}
	}
	return nil
}

func answerOf(matches []serve.Match) answer {
	var a answer
	for _, m := range matches {
		a.Matches = append(a.Matches, match(m))
	}
	return a
}

// locked serialises a request stream shared by concurrent clients.
func locked(next func() *request) func() *request {
	var mu sync.Mutex
	return func() *request {
		mu.Lock()
		defer mu.Unlock()
		return next()
	}
}

// report turns the traced replay's spans and counters into metrics.
func (out *replayOut) report(rep *report, tr *tracer) {
	// serve.Search self time: each search the cache did not answer, minus
	// the call that did — the router call on the wire path, else the
	// engine pass that ran inside the search's interval over a node set
	// containing the search's nodes (a pass serves a whole batch).
	engines := tr.named("core.query")
	var self []float64
	for _, c := range out.searches {
		if c.cached {
			continue
		}
		child := c.child
		if child == 0 {
			s0, s1 := int64(c.start.Sub(tr.t0)), int64(c.end.Sub(tr.t0))
			for _, e := range engines {
				if e.Start >= s0 && e.End <= s1 && containsAll(e.nodes, c.nodes) {
					child = e.dur()
					break
				}
			}
		}
		self = append(self, ms(c.end.Sub(c.start)-child))
	}
	rep.add("serve.search_self_ms", "ms", median(self))
	rep.add("serve.batch_nodes_mean", "count", out.sv.Metrics().BatchOccupancy.Snapshot().Mean)
	ratio := 0.0
	if h, m := out.lru.Stats(); h+m > out.hits0+out.misses0 {
		h, m = h-out.hits0, m-out.misses0
		ratio = float64(h) / float64(h+m)
	}
	rep.add("cache.hit_ratio", "ratio", ratio)
	out.wire.report(rep, tr)
	out.ing.report(rep)
}

func containsAll(set, nodes []int) bool {
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for _, v := range nodes {
		if !in[v] {
			return false
		}
	}
	return true
}

func medianSpan(tr *tracer, name string, unit time.Duration) float64 {
	var xs []float64
	for _, s := range tr.named(name) {
		xs = append(xs, float64(s.dur())/float64(unit))
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// ingestProbe is the ingest layer over a heap copy of the index: the
// service's Append, the bare WAL's Append, core.Dynamic's ApplyEdge,
// Cut, and a reload swap with a built candidate.
type ingestProbe struct {
	svc      *ingest.Service
	g        *graph.Graph
	heap     *core.Index
	dir      string
	mu       sync.Mutex
	appendMs []float64
	walMs    []float64
	applyUs  []float64
	cutMs    float64
	swapMs   float64
}

func newIngestProbe(g *graph.Graph, heap *core.Index, dir string) (*ingestProbe, error) {
	walDir, err := os.MkdirTemp(dir, "wal-")
	if err != nil {
		return nil, err
	}
	svc, err := ingest.NewService(g, heap, ingest.Config{Dir: walDir})
	if err != nil {
		return nil, err
	}
	if err := svc.Recover(); err != nil {
		svc.Close()
		return nil, err
	}
	return &ingestProbe{svc: svc, g: g, heap: heap, dir: dir}, nil
}

func (p *ingestProbe) close() { _ = p.svc.Close() }

func randomEdges(rng *rand.Rand, n, count int) []ingest.Edge {
	edges := make([]ingest.Edge, count)
	for j := range edges {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		edges[j] = ingest.Edge{Src: src, Dst: dst}
	}
	return edges
}

// append sends one batch through ingest.Service.Append.
func (p *ingestProbe) append(edges []ingest.Edge, tr *tracer, req int64) error {
	start := time.Now()
	_, _, err := p.svc.Append(edges)
	end := time.Now()
	tr.record("ingest.append", req, 0, start, end, nil)
	p.mu.Lock()
	p.appendMs = append(p.appendMs, ms(end.Sub(start)))
	p.mu.Unlock()
	return err
}

// ledger times the layers under Append one at a time on their own
// state: a bare WAL, a fresh dynamic graph, the service's live-graph cut
// (rolled back), and a reload swap of a built candidate into a server.
func (p *ingestProbe) ledger(rng *rand.Rand, ix *core.Index) error {
	walDir, err := os.MkdirTemp(p.dir, "bare-wal-")
	if err != nil {
		return err
	}
	wal, err := ingest.Open(walDir, ingest.WALOptions{}, nil)
	if err != nil {
		return err
	}
	n := p.g.N()
	for i := 0; i < 40; i++ {
		recs := make([]ingest.Record, ingestBatch)
		for j, e := range randomEdges(rng, n, ingestBatch) {
			recs[j] = ingest.Record{Src: uint32(e.Src), Dst: uint32(e.Dst), Weight: 1}
		}
		start := time.Now()
		if _, err := wal.Append(recs); err != nil {
			wal.Close()
			return err
		}
		p.walMs = append(p.walMs, ms(time.Since(start)))
	}
	if err := wal.Close(); err != nil {
		return err
	}
	dyn, err := core.NewDynamic(p.g, p.heap)
	if err != nil {
		return err
	}
	// One call takes well under a microsecond, near the clock's
	// granularity, so each sample is the mean over a block of calls.
	const blocks, perBlock = 10, 20
	edges := randomEdges(rng, n, blocks*perBlock)
	for b := 0; b < blocks; b++ {
		start := time.Now()
		for _, e := range edges[b*perBlock : (b+1)*perBlock] {
			if _, _, err := dyn.ApplyEdge(e.Src, e.Dst, 1, true); err != nil {
				return err
			}
		}
		p.applyUs = append(p.applyUs, float64(time.Since(start))/float64(time.Microsecond)/perBlock)
	}
	start := time.Now()
	if _, _, _, err := p.svc.Cut(); err != nil {
		return err
	}
	p.cutMs = ms(time.Since(start))
	p.svc.RebuildDone(false)

	sv := newServe(ix, newTracer(false), nil)
	defer sv.Close()
	cand := func(context.Context) (*reload.Candidate, error) {
		return &reload.Candidate{N: ix.N(), RankQuery: func(ctx context.Context, q []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
			return ix.QueryRankInto(ctx, q, rank, scratch, nil)
		}, Rank: ix.Rank(), Bound: ix.TruncationBound, Meta: reload.Meta{Source: "perfbench"}}, nil
	}
	start = time.Now()
	if _, err := reload.New(sv, cand, reload.Meta{Source: "perfbench"}).Reload(context.Background()); err != nil {
		return err
	}
	p.swapMs = ms(time.Since(start))
	return nil
}

func (p *ingestProbe) report(rep *report) {
	rep.add("ingest.append_ms", "ms", median(p.appendMs))
	rep.add("ingest.wal_append_ms", "ms", median(p.walMs))
	rep.add("core.dynamic_apply_us", "us", median(p.applyUs))
	rep.add("ingest.cut_ms", "ms", p.cutMs)
	rep.add("reload.swap_ms", "ms", p.swapMs)
}

// wireProbe is csrserver's -shardaddrs composition in-process: a
// two-shard router over wire.RemoteEngine slots, each dialled to an
// httptest-served wire.Worker, behind serve.NewRanked's direct top-k path
// with its own cache. Every slot is wrapped so its URows and PartialTopK
// calls are recorded as children of the router's TopKTagged span.
type wireProbe struct {
	tr       *tracer
	servers  []*httptest.Server
	engines  []*wire.RemoteEngine
	sv       *serve.Server
	lru      *cache.LRU
	mu       sync.Mutex
	mergeUs  []float64
	searches []searchCall
	oracle   *oracle
}

// wireReq rides the request context down to the slots.
type wireReq struct {
	id, search, topk int64 // request id; ids of its serve.search and shard.topk spans
	mu               sync.Mutex
	lists            [][]topk.Item
	child            time.Duration // the router call's duration
}

type tracedSlot struct {
	shard.Slot
	tr *tracer
}

func (t *tracedSlot) URows(ctx context.Context, nodes []int) (*dense.Mat, error) {
	start := time.Now()
	m, err := t.Slot.URows(ctx, nodes)
	if r, ok := ctx.Value(reqKey{}).(*wireReq); ok {
		t.tr.record("wire.urows", r.id, r.topk, start, time.Now(), nil)
	}
	return m, err
}

func (t *tracedSlot) PartialTopK(ctx context.Context, queries []int, uq *dense.Mat, k, rank int) ([]topk.Item, error) {
	start := time.Now()
	items, err := t.Slot.PartialTopK(ctx, queries, uq, k, rank)
	if r, ok := ctx.Value(reqKey{}).(*wireReq); ok {
		t.tr.record("wire.partial_topk", r.id, r.topk, start, time.Now(), nil)
		r.mu.Lock()
		r.lists = append(r.lists, items)
		r.mu.Unlock()
	}
	return items, err
}

func newWireProbe(ix *core.Index, tr *tracer) (*wireProbe, error) {
	shards, err := shard.Split(ix, 2)
	if err != nil {
		return nil, err
	}
	p := &wireProbe{tr: tr, oracle: &oracle{ix: ix}, lru: cache.New(1024)}
	var slots []shard.Slot
	for s, sh := range shards {
		hs := httptest.NewServer(wire.NewWorker(sh, 1, wire.WorkerConfig{Shard: s}).Handler())
		p.servers = append(p.servers, hs)
		re, err := wire.Dial(context.Background(), hs.URL, wire.Options{Shard: s})
		if err != nil {
			p.close()
			return nil, err
		}
		p.engines = append(p.engines, re)
		slots = append(slots, &tracedSlot{Slot: re, tr: tr})
	}
	rt, err := shard.NewRouterSlots(slots)
	if err != nil {
		p.close()
		return nil, err
	}
	direct := func(ctx context.Context, queries []int, k, rank int) ([]topk.Item, serve.TopKProvenance, error) {
		r, _ := ctx.Value(reqKey{}).(*wireReq)
		start := time.Now()
		res, err := rt.TopKTagged(ctx, queries, k, rank)
		end := time.Now()
		if r != nil {
			tr.recordAs(r.topk, "shard.topk", r.id, r.search, start, end, nil)
			r.child = end.Sub(start)
		}
		if err != nil {
			return nil, serve.TopKProvenance{}, err
		}
		return res.Items, serve.TopKProvenance{MissingShards: res.Missing, ErrorBound: res.ErrorBound}, nil
	}
	p.sv = serve.NewRanked(serve.Ranked{N: rt.N(), Rank: rt.Rank(), Bound: rt.TruncationBound, TopK: direct, Scores: rt.Scores}, serveConfig(p.lru))
	return p, nil
}

func (p *wireProbe) close() {
	if p.sv != nil {
		p.sv.Close()
	}
	for _, hs := range p.servers {
		hs.Close()
	}
}

// topK answers one query through serve.Search and the router, times the
// merge of the partial lists the router gathered, and checks the first
// few answers against the monolithic oracle.
func (p *wireProbe) topK(nodes []int, id int64) error {
	r := &wireReq{id: id, search: p.tr.reserve(), topk: p.tr.reserve()}
	ctx := context.WithValue(context.Background(), reqKey{}, r)
	start := time.Now()
	res, err := p.sv.Search(ctx, nodes, topK)
	end := time.Now()
	p.tr.recordAs(r.search, "serve.search", id, 0, start, end, nil)
	if err != nil {
		return err
	}
	if res.Info.MissingShards > 0 {
		return fmt.Errorf("wire probe: %d shards missing", res.Info.MissingShards)
	}
	var merge float64
	if !res.Cached {
		start := time.Now()
		topk.Merge(topK, r.lists...)
		merge = float64(time.Since(start)) / float64(time.Microsecond)
	}
	p.mu.Lock()
	if !res.Cached {
		p.mergeUs = append(p.mergeUs, merge)
	}
	p.searches = append(p.searches, searchCall{id: id, nodes: nodes, start: start, end: end, cached: res.Cached, matches: res.Matches, child: r.child})
	first := len(p.searches) <= 4
	p.mu.Unlock()
	if first {
		want, err := p.oracle.expect(nodes, topK)
		if err != nil {
			return err
		}
		if err := check(answerOf(res.Matches), want); err != nil {
			return fmt.Errorf("wire probe: %v differs from the monolithic reference: %w", abbrev(nodes), err)
		}
	}
	return nil
}

func (p *wireProbe) report(rep *report, tr *tracer) {
	rep.add("shard.topk_ms", "ms", medianSpan(tr, "shard.topk", time.Millisecond))
	rep.add("wire.partial_topk_ms", "ms", medianSpan(tr, "wire.partial_topk", time.Millisecond))
	rep.add("wire.urows_ms", "ms", medianSpan(tr, "wire.urows", time.Millisecond))
	rep.add("topk.merge_us", "us", median(p.mergeUs))
	var retries, hedges int64
	for _, e := range p.engines {
		st := e.Stats()
		retries += st.Retries
		hedges += st.Hedges
	}
	rep.add("wire.retries", "count", float64(retries))
	rep.add("wire.hedges", "count", float64(hedges))
}
