// Command csrserver serves CoSimRank similarity search over HTTP — the
// "online multi-source query" phase of CSR+ as a long-lived service: the
// index is precomputed once at startup, queries are answered from it.
//
// Requests are routed through internal/serve, which dynamically batches
// concurrent queries into multi-source engine passes (the paper's
// O(r(m + n(r + |Q|))) bound makes the marginal query nearly free),
// bounds concurrency with a worker pool, sheds load when the admission
// queue fills (HTTP 429), enforces per-request deadlines (504), and
// drains gracefully on SIGINT/SIGTERM.
//
// Usage:
//
//	csrserver -dataset WT -addr :8080
//	csrserver -graph edges.txt -n 100000 -r 8
//
// The index can be hot-reloaded with zero downtime: SIGHUP (or an
// authenticated POST /admin/reload) builds or loads the next index
// generation off the serving path, validates it with a smoke query, and
// atomically swaps it in while in-flight batches drain on the old one.
// With -snapshots DIR the server boots from the versioned snapshot the
// directory's CURRENT file names (index-<gen>.csrx), and each reload
// re-resolves CURRENT — publish a new snapshot, repoint CURRENT, send
// SIGHUP, and traffic moves to the new index without dropping a request.
//
// With -shards K (CSR+ only) the index is partitioned into K contiguous
// node-range shards behind an in-process scatter-gather router. Every
// query fans out to all shards in parallel and the per-shard partial
// top-k lists are merged into the exact global answer — results are
// bitwise-identical to a monolithic server at any K. Each shard has its
// own generation and snapshot directory (<dir>/shard-<s>), and reloads
// roll shard by shard: a failure mid-roll leaves a mixed-generation
// router that still answers every query exactly.
//
// Endpoints:
//
//	GET /health, /healthz             liveness (process up)
//	GET /readyz                       readiness (generation serving, breaker closed)
//	GET /stats                        graph + engine + serving counters
//	GET /metrics                      serving metrics (batching, queue, cache)
//	GET /topk?node=17&k=10            top-k most similar to one node
//	GET /topk?nodes=17,42&k=10        top-k by aggregate similarity
//	GET /similarity?node=17&targets=1,2,3   raw scores for chosen pairs
//	GET /admin/index                  live generation: source, path, build cost
//	POST /admin/reload                trigger a reload (Bearer -admintoken)
//
// With -degraderank R the server degrades gracefully under pressure:
// requests admitted with little deadline budget (-degradebudget) or
// batches flushed while the admission queue is past -degradequeue of its
// bound are answered at truncated rank R — cheaper by roughly R/r — and
// tagged with a "degraded" object carrying the effective rank and the
// index's entrywise error bound. Reload failures retry with exponential
// backoff (-reloadretries, -reloadbackoff); persistent failure opens a
// circuit breaker (-breakerfails, -breakercooldown) surfaced on /readyz.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"csrplus"

	"csrplus/internal/auth"
	"csrplus/internal/cache"
	"csrplus/internal/core"
	"csrplus/internal/ingest"
	"csrplus/internal/reload"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
	"csrplus/internal/wire"
)

func main() {
	dataset := flag.String("dataset", "", "paper dataset stand-in: FB, P2P, YT, WT, TW, WB")
	scale := flag.Int64("dscale", 0, "dataset downscale factor (0 = default)")
	graphPath := flag.String("graph", "", "edge-list file")
	n := flag.Int("n", 0, "node count for -graph")
	algo := flag.String("algo", csrplus.AlgoCSRPlus, "algorithm")
	rank := flag.Int("r", 5, "SVD rank / iteration count")
	damping := flag.Float64("c", 0.6, "damping factor")
	addr := flag.String("addr", ":8080", "listen address")
	indexPath := flag.String("index", "", "load a persisted CSR+ index instead of precomputing")
	saveIndex := flag.String("saveindex", "", "persist the precomputed CSR+ index to this path")
	quantize := flag.String("quantize", "", "factor tier for -saveindex and snapshot publishes: f32 or int8 (default exact f64); the serving engine stays exact")
	snapDir := flag.String("snapshots", "", "versioned snapshot directory (index-<gen>.csrx + CURRENT); boot from CURRENT when present, publish the boot index otherwise")
	shards := flag.Int("shards", 1, "partition the index into this many node-range shards behind a scatter-gather router (CSR+ only; 1 = monolithic)")
	shardWorker := flag.Int("shardworker", -1, "serve ONE shard over the wire protocol: boot from <snapshots>/shard-<s> and answer /shard/* requests (requires -snapshots; graph flags are ignored)")
	shardAddrs := flag.String("shardaddrs", "", "comma-separated shard worker addresses; serve as the shard router over these remote workers (graph flags are ignored)")
	wireTimeout := flag.Duration("wiretimeout", 5*time.Second, "per-attempt deadline for shard worker requests")
	wireRetries := flag.Int("wireretries", 3, "attempts per shard worker request (1 = no retry)")
	wireBackoff := flag.Duration("wirebackoff", 25*time.Millisecond, "base backoff between shard request retries (exponential, jittered)")
	wireHedge := flag.Float64("wirehedge", 0.9, "observed-latency quantile past which a shard request is hedged (negative disables)")
	wireHedgeMin := flag.Duration("wirehedgemin", time.Millisecond, "floor on the hedge delay")
	wireBreakerFails := flag.Int("wirebreakerfails", 5, "consecutive failed shard calls that open that shard's circuit breaker (0 disables)")
	wireBreakerCooldown := flag.Duration("wirebreakercooldown", 5*time.Second, "how long an open shard breaker fails fast before probing")
	adminToken := flag.String("admintoken", "", "bearer token authorising the POST /admin/* routes (empty disables them)")
	walDir := flag.String("waldir", "", "write-ahead log directory for durable streaming edge ingestion; enables POST /admin/edges and boot-time crash replay (monolithic CSR+ only)")
	driftBudget := flag.Float64("driftbudget", 0, "entrywise drift bound past which streamed edges mark answers degraded and trigger a live-graph rebuild (0 disables; requires -waldir)")
	cacheSize := flag.Int("cache", 1024, "top-k result cache entries (0 disables)")
	maxBatch := flag.Int("maxbatch", 32, "max query nodes coalesced per engine call")
	linger := flag.Duration("linger", 2*time.Millisecond, "max wait for co-batching a partial batch")
	workers := flag.Int("workers", 0, "concurrent engine calls (0 = GOMAXPROCS)")
	maxPending := flag.Int("pending", 1024, "admission queue bound; beyond it requests get 429")
	maxK := flag.Int("maxk", serve.DefaultMaxK, "server-side cap on requested k")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request deadline (0 disables)")
	degradeRank := flag.Int("degraderank", 0, "truncated SVD rank served under pressure (0 disables graceful degradation)")
	degradeBudget := flag.Duration("degradebudget", 0, "degrade requests admitted with less deadline budget than this (0 disables)")
	degradeQueue := flag.Float64("degradequeue", serve.DefaultDegradeQueueFraction, "admission-queue fill fraction past which whole batches degrade")
	reloadRetries := flag.Int("reloadretries", 3, "reload attempts per trigger (1 = no retry)")
	reloadBackoff := flag.Duration("reloadbackoff", 50*time.Millisecond, "base backoff between reload retries (exponential, jittered)")
	breakerFails := flag.Int("breakerfails", 5, "consecutive failed reloads that open the circuit breaker (0 disables)")
	breakerCooldown := flag.Duration("breakercooldown", 10*time.Second, "how long an open breaker rejects reload triggers")
	flag.Parse()
	armFaultsFromEnv()

	// The wire modes serve without a local graph: a worker's identity is
	// its snapshot, a router's is its workers.
	if *shardWorker >= 0 && *shardAddrs != "" {
		log.Fatalln("csrserver: -shardworker and -shardaddrs are different processes; pick one")
	}
	if *walDir != "" && (*shardWorker >= 0 || *shardAddrs != "") {
		log.Fatalln("csrserver: -waldir needs the graph in-process; it is not supported in the wire modes (-shardworker/-shardaddrs)")
	}
	if *shardWorker >= 0 {
		runShardWorker(*shardWorker, *snapDir, *addr, *adminToken)
		return
	}
	if *shardAddrs != "" {
		var lru *cache.LRU
		if *cacheSize > 0 {
			lru = cache.New(*cacheSize)
		}
		runWireRouter(wireRouterConfig{
			addrs:      strings.Split(*shardAddrs, ","),
			addr:       *addr,
			adminToken: *adminToken,
			lru:        lru,
			serveCfg: serve.Config{
				MaxBatch:   *maxBatch,
				Linger:     *linger,
				Workers:    *workers,
				MaxPending: *maxPending,
				MaxK:       *maxK,
				Timeout:    *timeout,
				Cache:      lru,
				Degrade: serve.DegradeConfig{
					Rank:          *degradeRank,
					QueueFraction: *degradeQueue,
					MinBudget:     *degradeBudget,
				},
			},
			policy: reload.Policy{
				MaxAttempts:      *reloadRetries,
				BaseBackoff:      *reloadBackoff,
				BreakerThreshold: *breakerFails,
				BreakerCooldown:  *breakerCooldown,
			},
			opt: wire.Options{
				Timeout:          *wireTimeout,
				MaxAttempts:      *wireRetries,
				BaseBackoff:      *wireBackoff,
				HedgeQuantile:    *wireHedge,
				HedgeMinDelay:    *wireHedgeMin,
				BreakerThreshold: *wireBreakerFails,
				BreakerCooldown:  *wireBreakerCooldown,
				AdminToken:       *adminToken,
			},
		})
		return
	}

	g, err := loadGraph(*dataset, *scale, *graphPath, *n)
	if err != nil {
		log.Fatalln("csrserver:", err)
	}
	if *snapDir != "" && *algo != csrplus.AlgoCSRPlus {
		log.Fatalln("csrserver: -snapshots requires the CSR+ algorithm (only CSR+ has a persistable index)")
	}
	if *shards < 1 {
		log.Fatalln("csrserver: -shards must be >= 1")
	}
	if *shards > 1 && *algo != csrplus.AlgoCSRPlus {
		log.Fatalln("csrserver: -shards requires the CSR+ algorithm (only CSR+ factors partition by node range)")
	}
	if *walDir != "" {
		switch {
		case *algo != csrplus.AlgoCSRPlus:
			log.Fatalln("csrserver: -waldir requires the CSR+ algorithm (streamed edges maintain CSR+ factors)")
		case *shards > 1:
			log.Fatalln("csrserver: -waldir requires a monolithic server (-shards 1)")
		case *quantize != "":
			log.Fatalln("csrserver: -waldir maintains exact f64 factors; drop -quantize")
		}
	} else if *driftBudget > 0 {
		log.Fatalln("csrserver: -driftbudget requires -waldir")
	}
	var lru *cache.LRU
	if *cacheSize > 0 {
		lru = cache.New(*cacheSize)
	}
	src := &source{
		g:         g,
		algo:      *algo,
		rank:      *rank,
		damping:   *damping,
		indexPath: *indexPath,
		snapDir:   *snapDir,
		shards:    *shards,
		lru:       lru,
	}
	cand, eng, err := src.build(context.Background())
	if err != nil {
		log.Fatalln("csrserver:", err)
	}
	if *saveIndex != "" {
		if eng == nil {
			log.Fatalln("csrserver: -saveindex needs a full index, but the boot came from per-shard snapshots")
		}
		if err := eng.SaveIndexTier(*saveIndex, *quantize); err != nil {
			log.Fatalln("csrserver:", err)
		}
		log.Printf("index persisted to %s (tier %s)", *saveIndex, tierName(*quantize))
	}
	// Prime an empty snapshot directory with the boot index so the first
	// SIGHUP has a CURRENT to resolve and operators can roll back to the
	// generation the server came up with. Sharded servers prime one
	// snapshot directory per shard (<dir>/shard-<s>) instead.
	switch {
	case *snapDir != "" && src.router != nil && cand.Meta.Source != "shard-snapshots":
		ix, ok := eng.CoreIndex()
		if !ok {
			log.Fatalln("csrserver: sharded boot without a CSR+ index")
		}
		if err := publishShardSnapshots(*snapDir, ix, src.router.Plan()); err != nil {
			log.Fatalln("csrserver:", err)
		}
		log.Printf("boot index published as %d per-shard snapshots under %s", src.router.K(), *snapDir)
	case *snapDir != "" && src.router == nil && cand.Meta.Source != "snapshot":
		gen, path, err := eng.SaveSnapshotTier(*snapDir, *quantize)
		if err != nil {
			log.Fatalln("csrserver:", err)
		}
		cand.Meta.Path, cand.Meta.SnapshotGen = path, gen
		log.Printf("boot index published as snapshot generation %d (%s, tier %s)", gen, path, tierName(*quantize))
	}
	log.Printf("ready in %v (source=%s peak %d bytes)", cand.Meta.BuildTime, cand.Meta.Source, cand.Meta.PeakBytes)

	// Streaming ingestion: the WAL-backed service layers streamed edges
	// onto the boot graph and accounts the drift the boot factors accrue
	// against the live graph. It comes up cold here; replay runs in the
	// background below so /readyz tracks it honestly.
	var ing *ingest.Service
	if *walDir != "" {
		if ing, err = setupIngest(g, eng, cand, *walDir, *driftBudget); err != nil {
			log.Fatalln("csrserver:", err)
		}
	}

	// NewRanked: each in-flight batch runs one engine pass into a pooled
	// n x |Q| matrix and answers every co-batched request from it in one
	// row-major pass (no per-column copies); the pass sees the batch
	// context (an abandoned batch stops mid-pass), and engines with rank
	// structure additionally serve truncated under pressure.
	sv := serve.NewRanked(serve.Ranked{
		N:     cand.N,
		Rank:  cand.Rank,
		Bound: cand.Bound,
		Query: cand.RankQuery,
		Drift: cand.Drift,
	}, serve.Config{
		MaxBatch:   *maxBatch,
		Linger:     *linger,
		Workers:    *workers,
		MaxPending: *maxPending,
		MaxK:       *maxK,
		Timeout:    *timeout,
		Cache:      lru,
		Degrade: serve.DegradeConfig{
			Rank:          *degradeRank,
			QueueFraction: *degradeQueue,
			MinBudget:     *degradeBudget,
		},
	})
	if src.router != nil {
		sv.Metrics().SetShards(src.router.K())
	}
	loadFn := src.loader()
	if ing != nil {
		loadFn = ingestLoader(src, ing)
	}
	man := reload.NewWithPolicy(sv, loadFn, cand.Meta, reload.Policy{
		MaxAttempts:      *reloadRetries,
		BaseBackoff:      *reloadBackoff,
		BreakerThreshold: *breakerFails,
		BreakerCooldown:  *breakerCooldown,
	})
	// The boot generation may pin a snapshot mapping too; the Manager
	// frees it after the first successful reload swaps it out.
	man.SetBootRelease(cand.Release)
	if ing != nil {
		ing.SetRebuildTrigger(func() {
			log.Println("csrserver: drift budget exceeded, rebuilding from the live graph ...")
			if _, err := reloadAndCommit(context.Background(), man, ing); err != nil {
				log.Println("csrserver: drift rebuild failed:", err)
			}
		})
		// Replay off the serving path: the listener comes up immediately,
		// /readyz reports not-ready and /admin/edges 503s until the tail is
		// back inside the graph. A log the boot factors can't replay onto
		// is fatal — serving would silently drop acknowledged edges.
		go func() {
			start := time.Now()
			if err := ing.Recover(); err != nil {
				log.Fatalln("csrserver: WAL recovery failed:", err)
			}
			st := ing.Stats()
			log.Printf("csrserver: WAL replay complete in %v (seq %d, drift %.3g)", time.Since(start), st.LastSeq, st.Drift)
			ing.TriggerIfExceeded()
		}()
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go reloadOnHUP(hup, man, ing)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newMux(man, sv, lru, *adminToken, src.router, ing),
		ReadHeaderTimeout: 5 * time.Second,
	}
	serveAndWait(srv, sv, fmt.Sprintf("server (maxbatch=%d linger=%v)", *maxBatch, *linger))
}

// source describes where index generations come from. build runs once at
// boot and once per reload, off the serving path; the precedence mirrors
// the flags: a snapshot directory's CURRENT pointer wins, then a pinned
// -index file, then an in-process precompute over the graph.
type source struct {
	g         *csrplus.Graph
	algo      string
	rank      int
	damping   float64
	indexPath string
	snapDir   string

	// shards > 1 routes serving through a scatter-gather router; the
	// router persists across reloads (only shard factors roll), and lru is
	// invalidated on a partial roll so no cached answer outlives a shard
	// whose factors changed without a serve-generation bump.
	shards int
	router *shard.Router
	lru    *cache.LRU
}

// build produces the next engine generation plus its provenance. The
// engine handle is returned alongside the candidate because boot-time
// callers need it (-saveindex, snapshot priming); reloads only keep the
// candidate. Sharded sources may return a nil engine (a boot straight
// from per-shard snapshots never materialises the monolithic index).
func (s *source) build(ctx context.Context) (*reload.Candidate, *csrplus.Engine, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if s.shards > 1 {
		return s.buildSharded(ctx)
	}
	return s.buildMono(ctx)
}

// buildMono is the monolithic path: one engine serves the whole graph.
func (s *source) buildMono(ctx context.Context) (*reload.Candidate, *csrplus.Engine, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	var (
		eng  *csrplus.Engine
		meta reload.Meta
		err  error
	)
	switch {
	case s.snapDir != "" && snapshotAvailable(s.snapDir):
		log.Printf("loading snapshot directory %s over n=%d m=%d ...", s.snapDir, s.g.N(), s.g.M())
		var snap csrplus.RecoveredSnapshot
		eng, snap, err = csrplus.RecoverEngine(s.g, s.snapDir)
		if err == nil {
			if snap.Recovered {
				log.Printf("WARNING: CURRENT unservable, recovered to snapshot generation %d (%s) — investigate and re-publish", snap.Gen, snap.Path)
			}
			meta = reload.Meta{Source: "snapshot", Path: snap.Path, SnapshotGen: snap.Gen, Recovered: snap.Recovered}
		}
	case s.indexPath != "":
		log.Printf("loading index %s over n=%d m=%d ...", s.indexPath, s.g.N(), s.g.M())
		eng, err = csrplus.LoadEngine(s.g, s.indexPath)
		meta = reload.Meta{Source: "index", Path: s.indexPath}
	default:
		log.Printf("precomputing %s index over n=%d m=%d ...", s.algo, s.g.N(), s.g.M())
		eng, err = csrplus.NewEngine(s.g, csrplus.Options{Algorithm: s.algo, Rank: s.rank, Damping: s.damping})
		meta = reload.Meta{Source: "rebuild"}
	}
	if err != nil {
		return nil, nil, err
	}
	st := eng.Stats()
	meta.Algorithm, meta.N, meta.M, meta.Rank = st.Algorithm, st.N, st.M, st.Rank
	meta.BuildTime = time.Since(start)
	meta.PeakBytes = st.PeakBytes
	return &reload.Candidate{
		N:         st.N,
		RankQuery: eng.QueryRankInto, // rank-aware generation: context + degradation
		Rank:      st.Rank,
		Bound:     eng.TruncationBound,
		Meta:      meta,
		// Engines loaded from a v2 snapshot pin a memory mapping; the
		// Manager releases it only after a later generation has swapped
		// in and the old batches drained.
		Release: func() { _ = eng.Close() },
	}, eng, nil
}

// buildSharded produces the next sharded generation. Sources, in
// precedence order: per-shard snapshot directories (<snapDir>/shard-<s>,
// each with its own index-<gen>.csrx + CURRENT) when every slot
// resolves, else a full monolithic build (buildMono's precedence) sliced
// by node range. The first build assembles the router; every later build
// is a rolling shard-by-shard swap into it — load, validate, swap one
// slot at a time, so a reload never has more than one shard's worth of
// the index in motion and a failure leaves a mixed-generation router
// that still answers every query exactly.
func (s *source) buildSharded(ctx context.Context) (*reload.Candidate, *csrplus.Engine, error) {
	start := time.Now()
	if s.snapDir != "" && shardSnapshotsAvailable(s.snapDir, s.shards) {
		cand, err := s.buildFromShardSnapshots(ctx, start)
		return cand, nil, err
	}
	cand, eng, err := s.buildMono(ctx)
	if err != nil {
		return nil, nil, err
	}
	ix, ok := eng.CoreIndex()
	if !ok {
		return nil, nil, fmt.Errorf("-shards requires the CSR+ algorithm")
	}
	if s.router == nil {
		rt, err := shard.NewRouterFromIndex(ix, s.shards)
		if err != nil {
			return nil, nil, err
		}
		s.router = rt
	} else {
		swapped, err := reload.RollShards(ctx, s.router, func(_ context.Context, _, lo, hi int) (*core.IndexShard, error) {
			return ix.Shard(lo, hi)
		})
		if err != nil {
			s.invalidateAfterPartialRoll(swapped)
			return nil, nil, err
		}
	}
	meta := cand.Meta
	meta.Shards = s.router.K()
	meta.BuildTime = time.Since(start)
	sc := s.shardCandidate(meta)
	// The router's shards COPY the mono index's factors (core.Shard
	// detaches from mappings), so the mono engine — possibly backed by a
	// mapped snapshot — can be released once this generation retires;
	// boot-time uses of eng (-saveindex, snapshot priming) all happen
	// before the first reload could trigger that.
	sc.Release = func() { _ = eng.Close() }
	return sc, eng, nil
}

// buildFromShardSnapshots loads every slot from its own snapshot
// directory. On the first build it assembles the router from the loaded
// shards (their ranges define the plan); on reloads it rolls them in
// slot by slot.
func (s *source) buildFromShardSnapshots(ctx context.Context, start time.Time) (*reload.Candidate, error) {
	loadSlot := func(slot int) (*core.IndexShard, error) {
		dir := core.ShardDir(s.snapDir, slot)
		sh, snap, recovered, err := core.RecoverShardSnapshot(dir)
		if err != nil {
			return nil, err
		}
		if recovered {
			log.Printf("WARNING: shard %d CURRENT unservable, recovered to snapshot generation %d (%s) — investigate and re-publish", slot, snap.Gen, snap.Path)
		}
		if sh.N() != s.g.N() {
			return nil, fmt.Errorf("shard %d snapshot built for %d nodes, graph has %d", slot, sh.N(), s.g.N())
		}
		return sh, nil
	}
	if s.router == nil {
		shards := make([]*core.IndexShard, s.shards)
		for slot := range shards {
			var err error
			if shards[slot], err = loadSlot(slot); err != nil {
				return nil, err
			}
		}
		rt, err := shard.NewRouter(shards)
		if err != nil {
			return nil, err
		}
		s.router = rt
	} else {
		swapped, err := reload.RollShards(ctx, s.router, func(_ context.Context, slot, _, _ int) (*core.IndexShard, error) {
			return loadSlot(slot)
		})
		if err != nil {
			s.invalidateAfterPartialRoll(swapped)
			return nil, err
		}
	}
	meta := reload.Meta{
		Source:    "shard-snapshots",
		Path:      s.snapDir,
		Algorithm: csrplus.AlgoCSRPlus,
		N:         s.router.N(),
		M:         s.g.M(),
		Rank:      s.router.Rank(),
		Shards:    s.router.K(),
		BuildTime: time.Since(start),
	}
	return s.shardCandidate(meta), nil
}

// shardCandidate wraps the router as a reload candidate. The closures
// are rebuilt each reload so the Manager's swap installs a fresh serve
// generation — that generation bump is what invalidates every cached
// result computed before the roll.
func (s *source) shardCandidate(meta reload.Meta) *reload.Candidate {
	rt := s.router
	return &reload.Candidate{
		N:         rt.N(),
		RankQuery: rt.QueryRankInto,
		Rank:      rt.Rank(),
		Bound:     rt.TruncationBound,
		Meta:      meta,
	}
}

// invalidateAfterPartialRoll clears the result cache when a rolling
// reload failed after swapping at least one shard: the serve generation
// never bumped (the reload errored before the Manager's swap), but some
// shards now answer from new factors, so pre-roll cache entries could
// otherwise be served against a changed index.
func (s *source) invalidateAfterPartialRoll(swapped int) {
	if swapped > 0 && s.lru != nil {
		s.lru.Clear()
		log.Printf("csrserver: rolling reload failed after %d shard swap(s); result cache cleared", swapped)
	}
}

// shardSnapshotsAvailable reports whether every one of the k per-shard
// snapshot directories under dir can resolve a snapshot. All-or-nothing:
// a partially published set falls back to a full rebuild rather than
// mixing snapshot shards with rebuild shards in one boot.
func shardSnapshotsAvailable(dir string, k int) bool {
	for s := 0; s < k; s++ {
		if !snapshotAvailable(core.ShardDir(dir, s)) {
			return false
		}
	}
	return true
}

// publishShardSnapshots slices ix by plan and publishes each slice as
// the next generation of its shard directory.
func publishShardSnapshots(dir string, ix *core.Index, plan shard.Plan) error {
	for s := 0; s < plan.K(); s++ {
		lo, hi := plan.Range(s)
		sh, err := ix.Shard(lo, hi)
		if err != nil {
			return err
		}
		if _, _, err := core.WriteShardSnapshot(core.ShardDir(dir, s), sh); err != nil {
			return err
		}
	}
	return nil
}

// snapshotAvailable reports whether dir holds anything a boot could
// serve — a resolvable CURRENT or, failing that, any index-<gen>.csrx
// file crash recovery could fall back to. An empty or still-
// unprovisioned directory falls through to the other sources instead of
// failing the boot.
func snapshotAvailable(dir string) bool {
	if _, _, err := core.CurrentSnapshot(dir); err == nil {
		return true
	}
	snaps, err := core.ListSnapshots(dir)
	return err == nil && len(snaps) > 0
}

// loader adapts build for the reload manager.
func (s *source) loader() reload.LoadFunc {
	return func(ctx context.Context) (*reload.Candidate, error) {
		cand, _, err := s.build(ctx)
		return cand, err
	}
}

// tierName renders the -quantize flag value for logs ("" is the exact
// f64 tier).
func tierName(q string) string {
	if q == "" {
		return "f64"
	}
	return q
}

// reloadOnHUP runs one reload per SIGHUP — the operator's signal that a
// new snapshot was published (or that the graph should be re-indexed).
// Failures are logged and the previous generation keeps serving. svc is
// the streaming-ingestion service when one is configured (nil otherwise);
// a successful operator reload commits its drift baseline like a
// drift-triggered one would.
func reloadOnHUP(ch <-chan os.Signal, man *reload.Manager, svc *ingest.Service) {
	for range ch {
		log.Println("csrserver: SIGHUP, reloading index ...")
		st, err := reloadAndCommit(context.Background(), man, svc)
		if err != nil {
			log.Println("csrserver: reload failed:", err)
			continue
		}
		log.Printf("csrserver: serving generation %d (source=%s path=%s build=%v)",
			st.Generation, st.Source, st.Path, time.Duration(st.BuildSeconds*float64(time.Second)))
	}
}

func loadGraph(dataset string, scale int64, graphPath string, n int) (*csrplus.Graph, error) {
	switch {
	case dataset != "" && graphPath != "":
		return nil, fmt.Errorf("use either -dataset or -graph, not both")
	case dataset != "":
		return csrplus.GenerateDataset(dataset, scale)
	case graphPath != "":
		if n <= 0 {
			return nil, fmt.Errorf("-graph requires -n")
		}
		return csrplus.LoadGraph(graphPath, n)
	default:
		return nil, fmt.Errorf("one of -dataset or -graph is required")
	}
}

// newMux wires the HTTP routes: query traffic goes through the serve
// layer sv; the reload manager man answers /stats and the /admin routes.
// Split from main so the handlers are testable with httptest. adminToken
// guards the POST /admin/* routes; empty disables them. rt is the
// scatter-gather router when -shards > 1 (nil otherwise) and only adds
// per-shard detail to /stats and /admin/index — their unsharded shapes
// are unchanged. svc is the streaming-ingestion service when -waldir is
// set (nil otherwise): it registers POST /admin/edges, gates /readyz on
// WAL replay, and adds an "ingest" section to /stats.
func newMux(man *reload.Manager, sv *serve.Server, lru *cache.LRU, adminToken string, rt *shard.Router, svc *ingest.Service) *http.ServeMux {
	mux := http.NewServeMux()
	// /health and /healthz are liveness: the process is up and able to
	// answer HTTP. They stay 200 through failed reloads and degraded mode
	// — restarting the process would not fix either.
	liveness := func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
	mux.HandleFunc("/health", liveness)
	mux.HandleFunc("/healthz", liveness)
	// /readyz is readiness: a generation is serving and the reload
	// breaker is closed. An open breaker means the index source is
	// persistently broken — traffic still gets answers from the old
	// generation, but orchestrators should stop preferring this replica.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		st := man.Current()
		b := man.Breaker()
		body := map[string]interface{}{
			"generation":     st.Generation,
			"source":         st.Source,
			"snapshot_gen":   st.SnapshotGen,
			"recovered":      st.Recovered,
			"reload_breaker": b,
		}
		if svc != nil {
			body["ingest_ready"] = svc.Ready()
		}
		switch {
		case st.Generation == 0:
			body["status"] = "no generation"
			writeJSON(w, http.StatusServiceUnavailable, body)
		case svc != nil && !svc.Ready():
			// A generation is serving but acknowledged edges are still
			// being replayed: answers would silently miss them.
			body["status"] = "ingest replay in progress"
			writeJSON(w, http.StatusServiceUnavailable, body)
		case b.Open:
			body["status"] = "reload breaker open"
			writeJSON(w, http.StatusServiceUnavailable, body)
		default:
			body["status"] = "ready"
			writeJSON(w, http.StatusOK, body)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		st := man.Current()
		body := map[string]interface{}{
			"algorithm":          st.Algorithm,
			"n":                  st.N,
			"m":                  st.M,
			"generation":         st.Generation,
			"source":             st.Source,
			"precompute_seconds": st.BuildSeconds,
			"peak_bytes":         st.PeakBytes,
			"serving":            sv.Metrics().Snapshot(),
			"reload_breaker":     man.Breaker(),
		}
		if lru != nil {
			hits, misses := lru.Stats()
			body["cache_hits"] = hits
			body["cache_misses"] = misses
			body["cache_entries"] = lru.Len()
		}
		if rt != nil {
			body["shards"] = rt.Status()
		}
		if svc != nil {
			body["ingest"] = svc.Stats()
		}
		writeJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("/admin/index", func(w http.ResponseWriter, r *http.Request) {
		st := man.Current()
		if rt == nil {
			writeJSON(w, http.StatusOK, st)
			return
		}
		// Re-marshal the status struct into a map so the per-shard
		// generations ride along without changing the unsharded shape.
		raw, err := json.Marshal(st)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		body := map[string]interface{}{}
		if err := json.Unmarshal(raw, &body); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		body["shards"] = rt.Status()
		writeJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("reload requires POST"))
			return
		}
		if !auth.Require(w, r, adminToken, failAuth) {
			return
		}
		st, err := reloadAndCommit(r.Context(), man, svc)
		switch {
		case errors.Is(err, reload.ErrCoalesced):
			// The trigger was folded into the in-flight reload's pending
			// re-run: accepted, will happen, nothing for the caller to do.
			writeJSON(w, http.StatusAccepted, map[string]interface{}{
				"status": "coalesced", "current": st,
			})
		case errors.Is(err, reload.ErrBreakerOpen):
			w.Header().Set("Retry-After", "10")
			writeError(w, http.StatusServiceUnavailable, err)
		case err != nil:
			writeError(w, http.StatusInternalServerError, err)
		default:
			writeJSON(w, http.StatusOK, st)
		}
	})
	// /admin/edges is the durable ingestion door: the batch is validated,
	// WAL-appended (the 200 means it survived fsync), and applied to the
	// live graph before the response. It exists only when -waldir is set.
	if svc != nil {
		mux.HandleFunc("/admin/edges", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				w.Header().Set("Allow", http.MethodPost)
				writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("edge ingestion requires POST"))
				return
			}
			if !auth.Require(w, r, adminToken, failAuth) {
				return
			}
			var req struct {
				Edges []ingest.Edge `json:"edges"`
			}
			dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
			if err := dec.Decode(&req); err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad ingest body: %v", err))
				return
			}
			seq, drift, err := svc.Append(req.Edges)
			switch {
			case errors.Is(err, ingest.ErrNotReady):
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, err)
			case errors.Is(err, ingest.ErrBadEdge):
				writeError(w, http.StatusBadRequest, err)
			case err != nil:
				writeError(w, http.StatusInternalServerError, err)
			default:
				writeJSON(w, http.StatusOK, map[string]interface{}{
					"seq":         seq,
					"drift_bound": drift,
				})
			}
		})
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, sv.Metrics().Snapshot())
	})
	mux.HandleFunc("/topk", func(w http.ResponseWriter, r *http.Request) {
		queries, err := queryNodes(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		k := 10
		if ks := r.URL.Query().Get("k"); ks != "" {
			if k, err = strconv.Atoi(ks); err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad k %q", ks))
				return
			}
		}
		res, err := sv.Search(r.Context(), queries, k)
		if err != nil {
			writeServeError(w, err)
			return
		}
		body := map[string]interface{}{"queries": queries, "matches": res.Matches}
		if res.Cached {
			body["cached"] = true
		}
		if res.Info.Degraded {
			body["degraded"] = res.Info
		}
		writeJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("/similarity", func(w http.ResponseWriter, r *http.Request) {
		queries, err := queryNodes(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		targets, err := parseIDs(r.URL.Query().Get("targets"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		res, err := sv.Score(r.Context(), queries, targets)
		if err != nil {
			writeServeError(w, err)
			return
		}
		body := map[string]interface{}{"pairs": res.Pairs}
		if res.Info.Degraded {
			body["degraded"] = res.Info
		}
		writeJSON(w, http.StatusOK, body)
	})
	return mux
}

// writeServeError maps the serve layer's typed errors onto HTTP status
// codes: shed load is 429 (retryable), deadline expiry 504, shutdown 503,
// validation 400.
func writeServeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, serve.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, serve.ErrBadRequest):
		writeError(w, http.StatusBadRequest, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func queryNodes(r *http.Request) ([]int, error) {
	q := r.URL.Query()
	if s := q.Get("nodes"); s != "" {
		return parseIDs(s)
	}
	if s := q.Get("node"); s != "" {
		return parseIDs(s)
	}
	return nil, fmt.Errorf("node or nodes parameter required")
}

func parseIDs(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("empty id list")
	}
	parts := strings.Split(s, ",")
	ids := make([]int, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad node id %q", p)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Println("csrserver: encode:", err)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// failAuth adapts writeError to the shared Bearer-auth helper.
func failAuth(w http.ResponseWriter, status int, msg string) {
	writeError(w, status, errors.New(msg))
}
