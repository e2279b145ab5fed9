package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"csrplus/internal/core"
	"csrplus/internal/graph"
)

// The self-test runs every workload at the tiny fixture against a real
// csrserver built from this checkout: go test ./ from perfbench/.

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var csrserverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-selftest-")
	if err != nil {
		panic(err)
	}
	csrserverBin = filepath.Join(dir, "csrserver")
	build := exec.Command("go", "build", "-o", csrserverBin, "csrplus/cmd/csrserver")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		panic("build csrserver: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tiny is a stand-in about the size of the FB dataset that runs every code
// path in seconds.
var tiny = fixture{logn: 12, m: 40_000, rank: 32, damp: 0.6, boots: 2, rate: 100,
	ladder: geometric(150, 1.5, 3)}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 2, trace: trace, bin: csrserverBin, work: t.TempDir(), fix: tiny}
}

// lastJSON emits rep and parses its final line as the driver does.
func lastJSON(t *testing.T, rep *report) (string, map[string]map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	emit(&buf, rep)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out struct {
		Correct   *bool                     `json:"correct"`
		Attempted *int                      `json:"attempted"`
		Failed    *int                      `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, buf.String())
	}
	if out.Correct == nil || out.Attempted == nil || out.Failed == nil || *out.Attempted < 1 {
		t.Fatalf("result object incomplete: %s", lines[len(lines)-1])
	}
	return buf.String(), out.Metrics
}

func wantMetrics(t *testing.T, printed string, got map[string]map[string]any, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if v["unit"] != m.Unit {
			t.Errorf("metric %s unit %v, want %s", m.Name, v["unit"], m.Unit)
		}
		if !strings.Contains(printed, m.Name+" ") {
			t.Errorf("metric %s not printed by name", m.Name)
		}
	}
}

func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	spec := loadSpec(t)
	// wire-k2 sits outside BENCHMARK.json (README.md) but stays runnable.
	names := []string{"wire-k2"}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			wl, ok := workloads[name]
			if !ok {
				t.Fatalf("BENCHMARK.json names unknown workload %s", name)
			}
			cfg := tinyConfig(t, name, false)
			rep, err := wl(cfg, cfg.work)
			if err != nil {
				t.Fatal(err)
			}
			printed, got := lastJSON(t, rep)
			if !rep.correct || rep.failed != 0 {
				t.Fatalf("correct=%v failed=%d\n%s", rep.correct, rep.failed, printed)
			}
			wantMetrics(t, printed, got, spec.EndToEnd)
		})
	}
}

func TestTracedRunPrintsLayerMetrics(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range []string{"zipf-topk", "wire-k2"} {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, name, true)
			rep, err := runTrace(cfg, workloads[name], cfg.work)
			if err != nil {
				t.Fatal(err)
			}
			printed, got := lastJSON(t, rep)
			if !rep.correct || rep.failed != 0 {
				t.Fatalf("correct=%v failed=%d\n%s", rep.correct, rep.failed, printed)
			}
			wantMetrics(t, printed, got, spec.PerLayer)
		})
	}
}

// The ingest workload sits outside BENCHMARK.json (README.md); it must
// still run to completion and account every op, whatever the server does.
func TestIngestRebuildAccountsEveryOp(t *testing.T) {
	cfg := tinyConfig(t, "ingest-rebuild", false)
	cfg.seconds = 3
	rep, err := runIngest(cfg, cfg.work)
	if err != nil {
		t.Fatal(err)
	}
	printed, _ := lastJSON(t, rep)
	for _, name := range []string{"ingest_ack_p50_ms", "ingest_ack_p99_ms", "rebuild_s", "degraded_read_frac", "ops_failed_frac"} {
		if !strings.Contains(printed, name+" ") {
			t.Errorf("%s not printed\n%s", name, printed)
		}
	}
	if rep.attempted < ingestPostOps {
		t.Errorf("attempted %d ops, want at least the %d after the commit", rep.attempted, ingestPostOps)
	}
}

func tinySnapshot(t *testing.T) string {
	t.Helper()
	g, err := graph.RMAT(tiny.logn, tiny.m, graph.DefaultRMAT, 5)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Precompute(g, core.Options{Rank: tiny.rank, Damping: tiny.damp})
	if err != nil {
		t.Fatal(err)
	}
	_, path, err := core.WriteSnapshot(t.TempDir(), ix)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOracleRejectsPerturbedAnswer(t *testing.T) {
	o, err := openOracle(tinySnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	defer o.close()
	for _, nodes := range [][]int{{17}, {3, 99, 1024, 7}} {
		want, err := o.expect(nodes, topK)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(map[string]any{"matches": want})
		good := &result{req: &request{nodes: nodes, k: topK}, body: body}
		if wrong, first := o.verify([]*result{good}); wrong != 0 {
			t.Fatalf("exact answer rejected: %v", first)
		}
		perturb := func(f func(a *answer)) *result {
			var a answer
			if err := json.Unmarshal(body, &a); err != nil {
				t.Fatal(err)
			}
			f(&a)
			b, _ := json.Marshal(a)
			return &result{req: good.req, body: b}
		}
		bad := []*result{
			perturb(func(a *answer) { a.Matches[3].Score *= 1 + 1e-9 }),
			perturb(func(a *answer) { a.Matches[0], a.Matches[1] = a.Matches[1], a.Matches[0] }),
			perturb(func(a *answer) { a.Matches[9].Node++ }),
			perturb(func(a *answer) { a.Matches = a.Matches[:9] }),
		}
		if wrong, _ := o.verify(bad); wrong != len(bad) {
			t.Fatalf("oracle accepted %d of %d perturbed answers", len(bad)-wrong, len(bad))
		}
	}
}

// A server killed mid-run turns the rest of the run into failed ops; the
// generator neither hangs nor aborts, and the exit is reported by name.
func TestKilledServerCountsAsFailedOps(t *testing.T) {
	dir := t.TempDir()
	snap := tinySnapshot(t)
	g, err := graph.RMAT(tiny.logn, tiny.m, graph.DefaultRMAT, 5)
	if err != nil {
		t.Fatal(err)
	}
	gp := filepath.Join(dir, "g.txt")
	if err := g.Save(gp); err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Dir(snap)
	s, _, err := boot("victim", csrserverBin, dir, time.Minute, "-graph", gp, "-n", "4096", "-snapshots", snapDir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	lg := newLoadgen(2, "")
	defer lg.close()
	next := uniformStream(streamRNG(1, 1), 4096, 1)
	go func() {
		time.Sleep(500 * time.Millisecond)
		_ = s.cmd.Process.Signal(syscall.SIGKILL)
	}()
	rs := lg.openLoop(s.url(""), 200, take(next, 400))
	rep := &report{correct: true}
	okReads := account(rep, rs)
	if rep.attempted != 400 || rep.failed == 0 || len(okReads) == 0 || len(okReads)+rep.failed != 400 {
		t.Fatalf("attempted=%d failed=%d ok=%d", rep.attempted, rep.failed, len(okReads))
	}
	<-s.done
	if msg := s.exitReport(); !strings.Contains(msg, "killed") {
		t.Fatalf("exit report %q does not name the signal", msg)
	}
}
