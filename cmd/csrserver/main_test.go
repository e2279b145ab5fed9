package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"csrplus"

	"csrplus/internal/core"

	"csrplus/internal/cache"
	"csrplus/internal/dense"
	"csrplus/internal/reload"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
)

func testGraph(t testing.TB) *csrplus.Graph {
	t.Helper()
	g, err := csrplus.NewGraph(6, [][2]int{
		{3, 0}, {0, 1}, {2, 1}, {4, 1}, {3, 2},
		{0, 3}, {4, 3}, {5, 3}, {2, 4}, {5, 4}, {3, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testEngine(t testing.TB) *csrplus.Engine {
	t.Helper()
	eng, err := csrplus.NewEngine(testGraph(t), csrplus.Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// testManager wraps an engine in a reload.Manager the way main does; its
// loader rebuilds a candidate over the same engine, so reload tests can
// advance the generation without paying for a second precompute.
func testManager(tb testing.TB, eng *csrplus.Engine, sv *serve.Server) *reload.Manager {
	tb.Helper()
	st := eng.Stats()
	meta := reload.Meta{
		Source: "boot", Algorithm: st.Algorithm, N: st.N, M: st.M, Rank: st.Rank,
		BuildTime: st.PrecomputeTime, PeakBytes: st.PeakBytes,
	}
	load := func(context.Context) (*reload.Candidate, error) {
		m := meta
		m.Source = "rebuild"
		return &reload.Candidate{N: st.N, RankQuery: eng.QueryRankInto, Meta: m}, nil
	}
	return reload.New(sv, load, meta)
}

// testServer wires a real engine through the serve layer the way main
// does. Linger < 0 flushes immediately so sequential tests stay fast.
func testServer(t *testing.T, cfg serve.Config, lru *cache.LRU) *httptest.Server {
	return testServerAuth(t, cfg, lru, "")
}

func testServerAuth(t *testing.T, cfg serve.Config, lru *cache.LRU, adminToken string) *httptest.Server {
	t.Helper()
	eng := testEngine(t)
	if cfg.Linger == 0 {
		cfg.Linger = -1
	}
	cfg.Cache = lru
	sv := serve.NewRanked(serve.Ranked{N: 6, Query: eng.QueryRankInto}, cfg)
	t.Cleanup(sv.Close)
	srv := httptest.NewServer(newMux(testManager(t, eng, sv), sv, lru, adminToken, nil, nil))
	t.Cleanup(srv.Close)
	return srv
}

// doReq issues a request with an optional bearer token.
func doReq(t *testing.T, srv *httptest.Server, method, path, token string) (int, map[string]interface{}) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func get(t *testing.T, srv *httptest.Server, path string) (int, map[string]interface{}) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestHealth(t *testing.T) {
	srv := testServer(t, serve.Config{}, nil)
	code, body := get(t, srv, "/health")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("code=%d body=%v", code, body)
	}
}

func TestStats(t *testing.T) {
	srv := testServer(t, serve.Config{}, nil)
	code, body := get(t, srv, "/stats")
	if code != http.StatusOK {
		t.Fatalf("code=%d", code)
	}
	if body["algorithm"] != "CSR+" || body["n"].(float64) != 6 {
		t.Fatalf("body=%v", body)
	}
	if _, ok := body["serving"].(map[string]interface{}); !ok {
		t.Fatalf("stats missing serving section: %v", body)
	}
}

func TestTopKSingle(t *testing.T) {
	srv := testServer(t, serve.Config{}, nil)
	code, body := get(t, srv, "/topk?node=1&k=3")
	if code != http.StatusOK {
		t.Fatalf("code=%d body=%v", code, body)
	}
	matches := body["matches"].([]interface{})
	if len(matches) != 3 {
		t.Fatalf("matches=%v", matches)
	}
	first := matches[0].(map[string]interface{})
	if int(first["node"].(float64)) != 3 {
		t.Fatalf("top match %v, want node 3", first)
	}
}

func TestTopKMulti(t *testing.T) {
	srv := testServer(t, serve.Config{}, nil)
	code, body := get(t, srv, "/topk?nodes=1,3&k=2")
	if code != http.StatusOK {
		t.Fatalf("code=%d body=%v", code, body)
	}
	if len(body["matches"].([]interface{})) != 2 {
		t.Fatalf("body=%v", body)
	}
}

func TestSimilarityPairs(t *testing.T) {
	srv := testServer(t, serve.Config{}, nil)
	code, body := get(t, srv, "/similarity?node=1&targets=3,4")
	if code != http.StatusOK {
		t.Fatalf("code=%d body=%v", code, body)
	}
	pairs := body["pairs"].([]interface{})
	if len(pairs) != 2 {
		t.Fatalf("pairs=%v", pairs)
	}
	p0 := pairs[0].(map[string]interface{})
	if p0["score"].(float64) <= 0 {
		t.Fatalf("pair score %v", p0)
	}
}

func TestBadRequests(t *testing.T) {
	srv := testServer(t, serve.Config{MaxK: 100}, nil)
	for _, path := range []string{
		"/topk",                         // missing node
		"/topk?node=zzz",                // unparsable id
		"/topk?node=99",                 // out of range
		"/topk?node=1&k=0",              // bad k
		"/topk?node=1&k=101",            // beyond server-side max k
		"/similarity?node=1",            // missing targets
		"/similarity?node=1&targets=99", // target out of range
	} {
		code, body := get(t, srv, path)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: code=%d body=%v", path, code, body)
		}
		if body["error"] == "" {
			t.Fatalf("%s: no error message", path)
		}
	}
}

func TestKClampedToN(t *testing.T) {
	// k above n but below MaxK clamps to the candidate count instead of
	// erroring: 6-node graph, single query -> 5 matches.
	srv := testServer(t, serve.Config{MaxK: 100}, nil)
	code, body := get(t, srv, "/topk?node=1&k=50")
	if code != http.StatusOK {
		t.Fatalf("code=%d body=%v", code, body)
	}
	if got := len(body["matches"].([]interface{})); got != 5 {
		t.Fatalf("got %d matches, want 5", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t, serve.Config{}, nil)
	if code, _ := get(t, srv, "/topk?node=1&k=3"); code != http.StatusOK {
		t.Fatal("warm-up query failed")
	}
	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("code=%d", code)
	}
	if body["requests_admitted"].(float64) < 1 || body["engine_batches"].(float64) < 1 {
		t.Fatalf("metrics=%v", body)
	}
	for _, key := range []string{"batch_occupancy", "latency_seconds", "queue_depth", "requests_shed"} {
		if _, ok := body[key]; !ok {
			t.Fatalf("metrics missing %q: %v", key, body)
		}
	}
}

func TestOverloadReturns429(t *testing.T) {
	eng := testEngine(t)
	gate := make(chan struct{})
	blocking := func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
		<-gate
		return eng.QueryRankInto(ctx, queries, rank, scratch)
	}
	sv := serve.NewRanked(serve.Ranked{N: 6, Query: blocking}, serve.Config{MaxBatch: 1, Linger: -1, MaxPending: 1, Workers: 1})
	srv := httptest.NewServer(newMux(testManager(t, eng, sv), sv, nil, "", nil, nil))
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer srv.Close()
	defer sv.Close()
	defer release()

	type result struct{ code int }
	results := make(chan result, 8)
	var wg sync.WaitGroup
	// Capacity with the worker gated is 3 (executing + dispatch-held +
	// queued); each sequential launch raises either admitted or shed, so
	// by the 4th a 429 is guaranteed.
	for i := 0; i < 4; i++ {
		admitted, shed := sv.Metrics().Admitted(), sv.Metrics().Shed()
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/topk?node=1&k=2")
			if err != nil {
				return
			}
			resp.Body.Close()
			results <- result{resp.StatusCode}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for sv.Metrics().Admitted() == admitted && sv.Metrics().Shed() == shed {
			if time.Now().After(deadline) {
				t.Fatal("request neither admitted nor shed")
			}
			time.Sleep(200 * time.Microsecond)
		}
		if sv.Metrics().Shed() > 0 {
			break
		}
	}
	if sv.Metrics().Shed() == 0 {
		t.Fatal("no request was shed")
	}
	if got := (<-results).code; got != http.StatusTooManyRequests {
		t.Fatalf("shed request got HTTP %d, want 429", got)
	}
	release()
	wg.Wait()
}

func TestDeadlineReturns504(t *testing.T) {
	eng := testEngine(t)
	slow := func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
		time.Sleep(100 * time.Millisecond)
		return eng.QueryRankInto(ctx, queries, rank, scratch)
	}
	sv := serve.NewRanked(serve.Ranked{N: 6, Query: slow}, serve.Config{Linger: -1, Timeout: 5 * time.Millisecond})
	defer sv.Close()
	srv := httptest.NewServer(newMux(testManager(t, eng, sv), sv, nil, "", nil, nil))
	defer srv.Close()
	code, body := get(t, srv, "/topk?node=1&k=2")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("code=%d body=%v", code, body)
	}
}

func TestLoadGraphValidation(t *testing.T) {
	if _, err := loadGraph("", 0, "", 0); err == nil {
		t.Fatal("no source accepted")
	}
	if _, err := loadGraph("FB", 0, "x.txt", 5); err == nil {
		t.Fatal("both sources accepted")
	}
	if _, err := loadGraph("", 0, "x.txt", 0); err == nil {
		t.Fatal("-graph without -n accepted")
	}
}

func TestTopKCachePath(t *testing.T) {
	lru := cache.New(8)
	srv := testServer(t, serve.Config{}, lru)
	code, first := get(t, srv, "/topk?node=1&k=2")
	if code != http.StatusOK {
		t.Fatalf("code=%d", code)
	}
	if first["cached"] != nil {
		t.Fatal("first request marked cached")
	}
	code, second := get(t, srv, "/topk?node=1&k=2")
	if code != http.StatusOK || second["cached"] != true {
		t.Fatalf("second request not cached: %v", second)
	}
	// Same node, different k must miss.
	_, third := get(t, srv, "/topk?node=1&k=3")
	if third["cached"] == true {
		t.Fatal("different k hit the cache")
	}
	// Stats expose both the raw LRU counters and the serving metrics view.
	_, stats := get(t, srv, "/stats")
	if stats["cache_hits"].(float64) < 1 {
		t.Fatalf("stats = %v", stats)
	}
	serving := stats["serving"].(map[string]interface{})
	if serving["cache_hits"].(float64) < 1 {
		t.Fatalf("serving metrics missed the cache hit: %v", serving)
	}
}

// BenchmarkTopKHandler measures end-to-end request throughput of the
// /topk route, cached and uncached.
func BenchmarkTopKHandler(b *testing.B) {
	eng := testEngine(b)
	run := func(b *testing.B, lru *cache.LRU) {
		sv := serve.NewRanked(serve.Ranked{N: 6, Query: eng.QueryRankInto}, serve.Config{Linger: -1, Cache: lru})
		defer sv.Close()
		srv := httptest.NewServer(newMux(testManager(b, eng, sv), sv, lru, "", nil, nil))
		defer srv.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Get(srv.URL + "/topk?node=1&k=3")
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b, nil) })
	b.Run("cached", func(b *testing.B) { run(b, cache.New(64)) })
}

func TestAdminIndexStatus(t *testing.T) {
	srv := testServer(t, serve.Config{}, nil)
	code, body := get(t, srv, "/admin/index")
	if code != http.StatusOK {
		t.Fatalf("code=%d body=%v", code, body)
	}
	if body["generation"].(float64) != 1 || body["source"] != "boot" {
		t.Fatalf("boot status = %v", body)
	}
	if body["algorithm"] != "CSR+" || body["n"].(float64) != 6 || body["rank"].(float64) != 3 {
		t.Fatalf("index meta = %v", body)
	}
}

func TestAdminReloadDisabledWithoutToken(t *testing.T) {
	srv := testServer(t, serve.Config{}, nil)
	// With no -admintoken the endpoint refuses even well-formed requests.
	code, body := doReq(t, srv, http.MethodPost, "/admin/reload", "anything")
	if code != http.StatusForbidden {
		t.Fatalf("code=%d body=%v", code, body)
	}
}

func TestAdminReloadAuthAndSwap(t *testing.T) {
	srv := testServerAuth(t, serve.Config{}, nil, "sesame")
	if code, _ := doReq(t, srv, http.MethodGet, "/admin/reload", "sesame"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/reload: code=%d", code)
	}
	if code, _ := doReq(t, srv, http.MethodPost, "/admin/reload", ""); code != http.StatusUnauthorized {
		t.Fatalf("missing token: code=%d", code)
	}
	if code, _ := doReq(t, srv, http.MethodPost, "/admin/reload", "wrong"); code != http.StatusForbidden {
		t.Fatalf("wrong token: code=%d", code)
	}
	// No auth failure may trigger a swap.
	if _, body := get(t, srv, "/admin/index"); body["generation"].(float64) != 1 {
		t.Fatalf("auth failures advanced the generation: %v", body)
	}
	code, body := doReq(t, srv, http.MethodPost, "/admin/reload", "sesame")
	if code != http.StatusOK {
		t.Fatalf("authorised reload: code=%d body=%v", code, body)
	}
	if body["generation"].(float64) != 2 || body["source"] != "rebuild" {
		t.Fatalf("reload status = %v", body)
	}
	// The new generation is visible on every status surface and still
	// answers queries.
	if _, body := get(t, srv, "/admin/index"); body["generation"].(float64) != 2 {
		t.Fatalf("/admin/index stale: %v", body)
	}
	_, stats := get(t, srv, "/stats")
	if stats["generation"].(float64) != 2 || stats["algorithm"] != "CSR+" {
		t.Fatalf("/stats after reload: %v", stats)
	}
	serving := stats["serving"].(map[string]interface{})
	if serving["reloads"].(float64) != 1 || serving["generation"].(float64) != 2 {
		t.Fatalf("serving metrics after reload: %v", serving)
	}
	if code, _ := get(t, srv, "/topk?node=1&k=3"); code != http.StatusOK {
		t.Fatal("queries broken after reload")
	}
}

func TestReloadOnHUP(t *testing.T) {
	eng := testEngine(t)
	sv := serve.NewRanked(serve.Ranked{N: 6, Query: eng.QueryRankInto}, serve.Config{Linger: -1})
	defer sv.Close()
	man := testManager(t, eng, sv)
	ch := make(chan os.Signal) // unbuffered: a send returns only once the loop is ready again
	done := make(chan struct{})
	go func() {
		reloadOnHUP(ch, man, nil)
		close(done)
	}()
	ch <- syscall.SIGHUP
	ch <- syscall.SIGHUP // accepted only after the first reload finished
	close(ch)
	<-done
	if got := man.Current().Generation; got != 3 {
		t.Fatalf("generation after two SIGHUPs = %d, want 3", got)
	}
}

// TestSourceSnapshotResolution covers main's boot-source precedence: a
// provisioned snapshot directory wins, an empty one falls back to an
// in-process rebuild.
func TestSourceSnapshotResolution(t *testing.T) {
	g := testGraph(t)
	eng, err := csrplus.NewEngine(g, csrplus.Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := eng.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	src := &source{g: g, algo: csrplus.AlgoCSRPlus, rank: 3, snapDir: dir}
	cand, _, err := src.build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cand.Meta.Source != "snapshot" || cand.Meta.SnapshotGen != 1 || cand.Meta.Rank != 3 {
		t.Fatalf("snapshot boot meta = %+v", cand.Meta)
	}
	empty := &source{g: g, algo: csrplus.AlgoCSRPlus, rank: 3, snapDir: t.TempDir()}
	cand, _, err = empty.build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cand.Meta.Source != "rebuild" {
		t.Fatalf("empty snapshot dir: source = %q, want rebuild", cand.Meta.Source)
	}
}

// TestAdminReloadPicksUpNewSnapshot is the full operator workflow end to
// end: boot from a snapshot directory, publish a new generation into it,
// trigger an authenticated reload, and watch traffic move over.
func TestAdminReloadPicksUpNewSnapshot(t *testing.T) {
	g := testGraph(t)
	eng, err := csrplus.NewEngine(g, csrplus.Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := eng.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	src := &source{g: g, algo: csrplus.AlgoCSRPlus, rank: 3, snapDir: dir}
	cand, _, err := src.build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sv := serve.NewRanked(serve.Ranked{N: cand.N, Query: cand.RankQuery}, serve.Config{Linger: -1})
	defer sv.Close()
	man := reload.New(sv, src.loader(), cand.Meta)
	srv := httptest.NewServer(newMux(man, sv, nil, "sesame", nil, nil))
	defer srv.Close()

	if _, _, err := eng.SaveSnapshot(dir); err != nil { // publish generation 2
		t.Fatal(err)
	}
	code, body := doReq(t, srv, http.MethodPost, "/admin/reload", "sesame")
	if code != http.StatusOK {
		t.Fatalf("reload: code=%d body=%v", code, body)
	}
	if body["source"] != "snapshot" || body["snapshot_gen"].(float64) != 2 || body["generation"].(float64) != 2 {
		t.Fatalf("reload status = %v", body)
	}
	if code, _ := get(t, srv, "/topk?node=1&k=3"); code != http.StatusOK {
		t.Fatal("queries broken after snapshot reload")
	}
}

func TestHealthzAndReadyz(t *testing.T) {
	srv := testServer(t, serve.Config{}, nil)
	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: code=%d body=%v", code, body)
	}
	code, body = get(t, srv, "/readyz")
	if code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz: code=%d body=%v", code, body)
	}
	if body["generation"].(float64) != 1 {
		t.Fatalf("readyz generation = %v", body["generation"])
	}
	if br, ok := body["reload_breaker"].(map[string]interface{}); !ok || br["open"] != false {
		t.Fatalf("readyz breaker = %v", body["reload_breaker"])
	}
}

// An open reload breaker must flip readiness to 503 while query traffic
// keeps being answered by the old generation.
func TestReadyzReportsOpenBreaker(t *testing.T) {
	eng := testEngine(t)
	sv := serve.NewRanked(serve.Ranked{N: 6, Query: eng.QueryRankInto}, serve.Config{Linger: -1})
	t.Cleanup(sv.Close)
	man := reload.NewWithPolicy(sv,
		func(context.Context) (*reload.Candidate, error) { return nil, errTestDown },
		reload.Meta{Source: "boot"},
		reload.Policy{MaxAttempts: 1, BreakerThreshold: 1, BreakerCooldown: time.Minute})
	srv := httptest.NewServer(newMux(man, sv, nil, "", nil, nil))
	t.Cleanup(srv.Close)

	if _, err := man.Reload(context.Background()); err == nil {
		t.Fatal("reload against a down source succeeded")
	}
	code, body := get(t, srv, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with open breaker: code=%d body=%v", code, body)
	}
	if code, _ := get(t, srv, "/topk?node=1&k=3"); code != http.StatusOK {
		t.Fatal("old generation stopped answering while breaker open")
	}
	if code, _ := get(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatal("liveness flipped with the breaker; only readiness should")
	}
}

var errTestDown = fmt.Errorf("snapshot source down")

// A degraded answer must carry its provenance through the HTTP layer.
func TestTopKDegradedTagging(t *testing.T) {
	eng := testEngine(t)
	st := eng.Stats()
	sv := serve.NewRanked(serve.Ranked{
		N: st.N, Rank: st.Rank, Bound: eng.TruncationBound, Query: eng.QueryRankInto,
	}, serve.Config{
		Linger: -1,
		// The server-imposed Timeout is the deadline the budget check
		// sees; with MinBudget above it, every request votes to degrade.
		Timeout: 5 * time.Second,
		Degrade: serve.DegradeConfig{Rank: 1, MinBudget: time.Hour},
	})
	t.Cleanup(sv.Close)
	srv := httptest.NewServer(newMux(testManager(t, eng, sv), sv, nil, "", nil, nil))
	t.Cleanup(srv.Close)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/topk?node=1&k=3", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code=%d body=%v", resp.StatusCode, body)
	}
	deg, ok := body["degraded"].(map[string]interface{})
	if !ok {
		t.Fatalf("deadline-pressured response not tagged: %v", body)
	}
	if deg["effective_rank"].(float64) != 1 || deg["full_rank"].(float64) != float64(st.Rank) {
		t.Fatalf("degraded info = %v", deg)
	}
	if deg["error_bound"].(float64) <= 0 {
		t.Fatalf("degraded response missing error bound: %v", deg)
	}
}

// Boot must survive a snapshot directory whose CURRENT points at a
// missing generation: crash recovery serves the newest valid one and
// flags it.
func TestBootRecoversFromTornSnapshotDir(t *testing.T) {
	g := testGraph(t)
	eng, err := csrplus.NewEngine(g, csrplus.Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		if _, _, err := eng.SaveSnapshot(dir); err != nil {
			t.Fatal(err)
		}
	}
	// A torn publish: CURRENT names a generation that never hit the disk.
	if err := os.WriteFile(filepath.Join(dir, core.CurrentFile), []byte(core.SnapshotName(9)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := &source{g: g, algo: csrplus.AlgoCSRPlus, rank: 3, snapDir: dir}
	cand, _, err := src.build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cand.Meta.Source != "snapshot" || !cand.Meta.Recovered || cand.Meta.SnapshotGen != 2 {
		t.Fatalf("recovery boot meta = %+v, want recovered snapshot gen 2", cand.Meta)
	}
	if cand.RankQuery == nil || cand.Rank != 3 {
		t.Fatalf("candidate missing rank structure: rank=%d", cand.Rank)
	}
}

// A sharded source boots by slicing a monolithic build, publishes
// per-shard snapshots, and then reloads by rolling those snapshots in
// shard by shard.
func TestShardedSourceBuildAndRoll(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	src := &source{g: g, algo: csrplus.AlgoCSRPlus, rank: 3, snapDir: dir, shards: 3}
	cand, eng, err := src.build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if src.router == nil || src.router.K() != 3 || cand.Meta.Shards != 3 {
		t.Fatalf("boot meta = %+v, router = %v", cand.Meta, src.router)
	}
	for s, gen := range src.router.Generations() {
		if gen != 1 {
			t.Fatalf("shard %d at generation %d after boot, want 1", s, gen)
		}
	}
	ix, ok := eng.CoreIndex()
	if !ok {
		t.Fatal("sharded boot without a core index")
	}
	if err := publishShardSnapshots(dir, ix, src.router.Plan()); err != nil {
		t.Fatal(err)
	}
	if !shardSnapshotsAvailable(dir, 3) {
		t.Fatal("published shard snapshots not detected")
	}
	cand2, eng2, err := src.build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if eng2 != nil {
		t.Fatal("shard-snapshot reload should not build a monolithic engine")
	}
	if cand2.Meta.Source != "shard-snapshots" || cand2.Meta.Shards != 3 {
		t.Fatalf("reload meta = %+v", cand2.Meta)
	}
	for s, gen := range src.router.Generations() {
		if gen != 2 {
			t.Fatalf("shard %d at generation %d after roll, want 2", s, gen)
		}
	}
}

// The sharded mux serves bitwise-identical top-k to the monolithic one
// and surfaces per-shard detail on /stats and /admin/index without
// changing the unsharded response shapes.
func TestShardedMuxEndpoints(t *testing.T) {
	eng := testEngine(t)
	ix, ok := eng.CoreIndex()
	if !ok {
		t.Fatal("engine has no core index")
	}
	rt, err := shard.NewRouterFromIndex(ix, 3)
	if err != nil {
		t.Fatal(err)
	}
	sv := serve.NewRanked(serve.Ranked{
		N: rt.N(), Rank: rt.Rank(), Bound: rt.TruncationBound, Query: rt.QueryRankInto,
	}, serve.Config{Linger: -1})
	t.Cleanup(sv.Close)
	sv.Metrics().SetShards(rt.K())
	srv := httptest.NewServer(newMux(testManager(t, eng, sv), sv, nil, "", rt, nil))
	t.Cleanup(srv.Close)
	mono := testServer(t, serve.Config{}, nil)

	for _, path := range []string{"/topk?node=1&k=5", "/topk?nodes=1,3&k=4"} {
		codeA, bodyA := get(t, srv, path)
		codeB, bodyB := get(t, mono, path)
		if codeA != http.StatusOK || codeB != http.StatusOK {
			t.Fatalf("%s: sharded=%d mono=%d", path, codeA, codeB)
		}
		a, _ := json.Marshal(bodyA["matches"])
		b, _ := json.Marshal(bodyB["matches"])
		if string(a) != string(b) {
			t.Fatalf("%s: sharded %s != monolithic %s", path, a, b)
		}
	}

	code, body := get(t, srv, "/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats code=%d", code)
	}
	shardList, ok := body["shards"].([]interface{})
	if !ok || len(shardList) != 3 {
		t.Fatalf("/stats shards = %v", body["shards"])
	}
	first := shardList[0].(map[string]interface{})
	if first["lo"].(float64) != 0 || first["generation"].(float64) != 1 {
		t.Fatalf("/stats shard 0 = %v", first)
	}
	serving := body["serving"].(map[string]interface{})
	if serving["shard_count"].(float64) != 3 {
		t.Fatalf("shard_count = %v", serving["shard_count"])
	}

	code, body = get(t, srv, "/admin/index")
	if code != http.StatusOK {
		t.Fatalf("/admin/index code=%d", code)
	}
	if _, ok := body["shards"].([]interface{}); !ok {
		t.Fatalf("/admin/index missing shards: %v", body)
	}
	if _, ok := body["generation"]; !ok {
		t.Fatalf("/admin/index lost generation key: %v", body)
	}
}
