package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"csrplus"

	"csrplus/internal/core"
	"csrplus/internal/ingest"
	"csrplus/internal/reload"
	"csrplus/internal/serve"
)

// ingestFixture boots the monolithic serving stack with streaming
// ingestion the way main does: engine, cold ingest service, drift-aware
// serve layer, mux. Recovery is left to the caller so the readiness
// gating is testable.
func ingestFixture(t *testing.T, walDir string, budget float64, token string) (*ingest.Service, *httptest.Server) {
	t.Helper()
	g := testGraph(t)
	eng, err := csrplus.NewEngine(g, csrplus.Options{Rank: 6})
	if err != nil {
		t.Fatal(err)
	}
	cand := &reload.Candidate{}
	svc, err := setupIngest(g, eng, cand, walDir, budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	st := eng.Stats()
	sv := serve.NewRanked(serve.Ranked{
		N:     st.N,
		Rank:  st.Rank,
		Bound: eng.TruncationBound,
		Query: eng.QueryRankInto,
		Drift: cand.Drift,
	}, serve.Config{Linger: -1})
	t.Cleanup(sv.Close)
	srv := httptest.NewServer(newMux(testManager(t, eng, sv), sv, nil, token, nil, svc))
	t.Cleanup(srv.Close)
	return svc, srv
}

func postEdges(t *testing.T, srv *httptest.Server, token, body string) (int, map[string]interface{}) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/admin/edges", bytes.NewReader([]byte(body)))
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
	out := map[string]interface{}{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode /admin/edges response: %v", err)
	}
	return resp.StatusCode, out
}

func TestAdminEdgesLifecycle(t *testing.T) {
	svc, srv := ingestFixture(t, t.TempDir(), 1e-9, "sesame")

	// Until the WAL tail is replayed the replica must not take traffic
	// or writes: acknowledged edges would silently be missing.
	if code, body := doReq(t, srv, http.MethodGet, "/readyz", ""); code != http.StatusServiceUnavailable ||
		body["status"] != "ingest replay in progress" {
		t.Fatalf("readyz during replay: %d %v", code, body)
	}
	if code, _ := postEdges(t, srv, "sesame", `{"edges":[{"src":1,"dst":0}]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("append during replay: %d", code)
	}
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	if code, body := doReq(t, srv, http.MethodGet, "/readyz", ""); code != http.StatusOK || body["ingest_ready"] != true {
		t.Fatalf("readyz after replay: %d %v", code, body)
	}

	// Same Bearer discipline as /admin/reload: missing 401, wrong 403.
	if code, _ := postEdges(t, srv, "", `{"edges":[]}`); code != http.StatusUnauthorized {
		t.Fatalf("missing token: %d", code)
	}
	if code, _ := postEdges(t, srv, "wrong", `{"edges":[]}`); code != http.StatusForbidden {
		t.Fatalf("wrong token: %d", code)
	}

	code, body := postEdges(t, srv, "sesame", `{"edges":[{"src":1,"dst":0}]}`)
	if code != http.StatusOK {
		t.Fatalf("append: %d %v", code, body)
	}
	if body["seq"].(float64) != 1 || body["drift_bound"].(float64) <= 0 {
		t.Fatalf("append response: %v", body)
	}

	// The tiny budget is now exceeded: answers must carry the drift bound
	// and be tagged degraded even at full rank.
	if code, body := doReq(t, srv, http.MethodGet, "/topk?node=0&k=3", ""); code != http.StatusOK {
		t.Fatalf("topk: %d %v", code, body)
	} else if deg, ok := body["degraded"].(map[string]interface{}); !ok || deg["drift_bound"].(float64) <= 0 {
		t.Fatalf("drifted answer not tagged: %v", body)
	}

	if code, _ := postEdges(t, srv, "sesame", `{"edges":[{"src":99,"dst":0}]}`); code != http.StatusBadRequest {
		t.Fatalf("out-of-range edge: %d", code)
	}
	if code, _ := postEdges(t, srv, "sesame", `{"edges":`); code != http.StatusBadRequest {
		t.Fatalf("truncated body: %d", code)
	}

	if _, body := doReq(t, srv, http.MethodGet, "/stats", ""); body["ingest"] == nil {
		t.Fatalf("stats missing ingest section: %v", body)
	} else if ing := body["ingest"].(map[string]interface{}); ing["last_seq"].(float64) != 1 || ing["budget_exceeded"] != true {
		t.Fatalf("ingest stats: %v", ing)
	}
}

func TestIngestRebuildLoaderPublishesSnapshot(t *testing.T) {
	g := testGraph(t)
	eng, err := csrplus.NewEngine(g, csrplus.Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	cand := &reload.Candidate{}
	svc, err := setupIngest(g, eng, cand, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Append([]ingest.Edge{{Src: 1, Dst: 0}, {Src: 2, Dst: 0}}); err != nil {
		t.Fatal(err)
	}
	if svc.DriftBound() <= 0 {
		t.Fatal("appends accrued no drift")
	}

	snapDir := t.TempDir()
	src := &source{g: g, algo: csrplus.AlgoCSRPlus, rank: 3, damping: 0.6, snapDir: snapDir}
	st := eng.Stats()
	sv := serve.NewRanked(serve.Ranked{
		N: st.N, Rank: st.Rank, Bound: eng.TruncationBound,
		Query: eng.QueryRankInto, Drift: cand.Drift,
	}, serve.Config{Linger: -1})
	defer sv.Close()
	man := reload.New(sv, ingestLoader(src, svc), reload.Meta{Source: "boot"})

	status, err := reloadAndCommit(context.Background(), man, svc)
	if err != nil {
		t.Fatal(err)
	}
	if status.Source != "ingest-rebuild" {
		t.Fatalf("reload source %q, want ingest-rebuild", status.Source)
	}
	// Commit promoted the cut's baseline: the new generation serves with
	// zero drift until the next append.
	if d := svc.DriftBound(); d > 1e-12 {
		t.Fatalf("post-commit drift %g", d)
	}
	// The published snapshot covers the live graph (one extra edge's
	// worth of M) and records the cut's WAL sequence, so the next boot
	// replays nothing below it.
	path, _, err := core.CurrentSnapshot(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.WalSeq() != 2 {
		t.Fatalf("snapshot wal seq %d, want 2", ix.WalSeq())
	}
	if status.M != g.M()+2 {
		t.Fatalf("rebuilt over m=%d, want %d", status.M, g.M()+2)
	}
}

// TestSnapshotBootIngestSurvivesRebuild boots the way main does from a
// published snapshot with -waldir: the boot engine maps the snapshot,
// the reload manager owns the mapping's release, and a drift-triggered
// rebuild swaps the boot generation out (unmapping it). Streamed edges
// must keep being accepted afterwards — the ingest service's dynamic
// state was built over the mapped boot factors and outlives them.
func TestSnapshotBootIngestSurvivesRebuild(t *testing.T) {
	g := testGraph(t)
	snapDir := t.TempDir()
	pre, err := csrplus.NewEngine(g, csrplus.Options{Rank: 3, Damping: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pre.SaveSnapshot(snapDir); err != nil {
		t.Fatal(err)
	}
	src := &source{g: g, algo: csrplus.AlgoCSRPlus, rank: 3, damping: 0.6, snapDir: snapDir}
	cand, eng, err := src.build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ix, ok := eng.CoreIndex(); !ok || cand.Meta.Source != "snapshot" || !ix.Mapped() {
		t.Skipf("boot did not map the snapshot (source %q)", cand.Meta.Source)
	}
	svc, err := setupIngest(g, eng, cand, t.TempDir(), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sv := serve.NewRanked(serve.Ranked{
		N: cand.N, Rank: cand.Rank, Bound: cand.Bound,
		Query: cand.RankQuery, Drift: cand.Drift,
	}, serve.Config{Linger: -1})
	defer sv.Close()
	man := reload.New(sv, ingestLoader(src, svc), cand.Meta)
	man.SetBootRelease(cand.Release)
	rebuilt := make(chan error, 4)
	svc.SetRebuildTrigger(func() {
		_, err := reloadAndCommit(context.Background(), man, svc)
		rebuilt <- err
	})
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(man, sv, nil, "sesame", nil, svc))
	defer srv.Close()

	// One edge overruns the 1e-9 budget: the rebuild commits and releases
	// the boot mapping.
	if code, body := postEdges(t, srv, "sesame", `{"edges":[{"src":1,"dst":0}]}`); code != http.StatusOK {
		t.Fatalf("first append: %d %v", code, body)
	}
	if err := <-rebuilt; err != nil {
		t.Fatalf("drift rebuild: %v", err)
	}
	if gen := man.Current().Generation; gen != 2 {
		t.Fatalf("serving generation %d after the rebuild, want 2", gen)
	}
	if code, body := postEdges(t, srv, "sesame", `{"edges":[{"src":2,"dst":0}]}`); code != http.StatusOK {
		t.Fatalf("append after the rebuild: %d %v", code, body)
	}
	if err := <-rebuilt; err != nil {
		t.Fatalf("second drift rebuild: %v", err)
	}
	if code, body := doReq(t, srv, http.MethodGet, "/topk?node=0&k=3", ""); code != http.StatusOK {
		t.Fatalf("topk after two rebuilds: %d %v", code, body)
	}
}
