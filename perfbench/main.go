// Command perfbench is the repository's end-to-end benchmark. It builds a
// seeded R-MAT graph, has csrserver precompute and publish a rank-32
// snapshot of it, boots the servers a workload needs from that snapshot,
// drives them over loopback HTTP, checks a seeded sample of answers
// against an in-process oracle, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 1 it instead replays the workload's stream in-process
// through the same public constructors csrserver composes, timing each
// layer from outside, and prints the per-layer metrics. See README.md.
//
// Run it through run.sh, which builds csrserver from this checkout first:
//
//	bash perfbench/run.sh --workload zipf-topk --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // csrserver binary
	work     string // scratch directory for graphs, snapshots and logs
	fix      fixture
}

// fixture sizes the shared set-up: full is the benchmark's; the
// self-test runs every code path at a tiny one.
type fixture struct {
	logn   int
	m      int64
	rank   int
	damp   float64
	boots  int     // snapshot boots per run; setup_s is their median
	rate   float64 // zipf-topk fixed offered rate (req/s)
	ladder []float64
}

var full = fixture{logn: 17, m: 1_000_000, rank: 32, damp: 0.6, boots: 11, rate: 200,
	ladder: geometric(500, 1.15, 10)}

func geometric(start, factor float64, steps int) []float64 {
	out := make([]float64, steps)
	for i := range out {
		out[i] = math.Round(start)
		start *= factor
	}
	return out
}

func (f fixture) n() int { return 1 << f.logn }

// metric is one named, united measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is a run's outcome: ops attempted and failed (wrong answers
// count as failed), whether every checked answer was right, the metrics
// in print order, and free-form notes such as server exits.
type report struct {
	attempted int
	failed    int
	correct   bool
	metrics   []metric
	extra     []metric // workload-specific figures printed but not in the JSON line
	notes     []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}
func (r *report) addExtra(name, unit string, v float64) {
	r.extra = append(r.extra, metric{name, unit, v})
}
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	cfg := config{fix: full}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the graph and every request and edge stream")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced in-process layer run (per-layer metrics)")
	flag.StringVar(&cfg.bin, "bin", "", "csrserver binary (run.sh builds it)")
	flag.StringVar(&cfg.work, "work", "", "work directory (run.sh passes .bench_build/work)")
	flag.Parse()
	cfg.trace = trace != 0
	w, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown -workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.bin == "" || cfg.work == "" {
		fatalf("-bin and -work are required; run through perfbench/run.sh")
	}
	if cfg.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	dir, err := os.MkdirTemp(mustMkdir(cfg.work), cfg.workload+"-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(dir)

	stamp(cfg)
	var rep *report
	if cfg.trace {
		rep, err = runTrace(cfg, w, dir)
	} else {
		rep, err = w(cfg, dir)
	}
	if err != nil {
		os.RemoveAll(dir)
		fatalf("%s: %v", cfg.workload, err)
	}
	emit(os.Stdout, rep)
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	return dir
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// stamp records the environment every figure depends on.
func stamp(cfg config) {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v n=%d m=%d r=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.fix.n(), cfg.fix.m, cfg.fix.rank)
	fmt.Printf("# GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s held-out-seed=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), commit(), heldOutSeed)
}

// heldOutSeed is never used while tuning the benchmark or a change
// measured on it; a performance claim is confirmed on it last.
const heldOutSeed = 9001

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads HEAD from a git checkout when there is one; exported
// trees carry none.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		if b, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
			return strings.TrimSpace(string(b))
		}
		return "unknown"
	}
	return ref
}

func emit(w io.Writer, rep *report) {
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range append(append([]metric(nil), rep.metrics...), rep.extra...) {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "ops attempted=%d failed=%d correct=%v\n", rep.attempted, rep.failed, rep.correct)
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(rep.metrics))
	for _, m := range rep.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // no samples (every op failed); correct/failed say why
		}
		ms[m.name] = val{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, ms})
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Fprintln(w, string(line))
}

// percentile is the nearest-rank q-quantile of xs (sorted in place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
