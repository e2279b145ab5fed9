package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"csrplus/internal/dense"
	"csrplus/internal/topk"
)

// saltedScore is a deterministic engine output for node i against query
// q at a rank: a mix of exact multiples of 1/8 (so sums tie exactly),
// full-precision values (so summation order shows in the bits), and the
// special values a diverged or denormal pass can produce — NaN, ±Inf and
// −0 (which a sum onto +0 turns into +0).
func saltedScore(i, q, rank int) float64 {
	h := uint64(i)*0x9e3779b97f4a7c15 ^ uint64(q)*0xc2b2ae3d27d4eb4f ^ uint64(rank+1)*0x165667b19e3779f9
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	switch v := h % 1024; {
	case v == 0:
		return math.NaN()
	case v == 1:
		return math.Inf(1)
	case v == 2:
		return math.Inf(-1)
	case v < 64:
		return math.Copysign(0, -1)
	case v < 512:
		return float64(int(h>>10%9)-4) / 8
	default:
		return float64(h>>11)/(1<<53)*2 - 1
	}
}

// saltedEngine serves saltedScore columns over n nodes; the rank the
// pass ran at is part of every value, so degraded answers differ from
// exact ones.
func saltedEngine(n int) RankQueryFunc {
	return func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m := scratch.Reuse(n, len(queries))
		for i := 0; i < n; i++ {
			for j, q := range queries {
				m.Set(i, j, saltedScore(i, q, rank))
			}
		}
		return m, nil
	}
}

// refColumns is the per-column copy the serve layer used to hand
// callers: node q's full similarity column, one slice per query node.
func refColumns(n, rank int, queries []int) map[int][]float64 {
	cols := make(map[int][]float64, len(queries))
	for _, q := range queries {
		col := make([]float64, n)
		for i := range col {
			col[i] = saltedScore(i, q, rank)
		}
		cols[q] = col
	}
	return cols
}

// refTopK is the column path the row-major reducer replaced, kept as the
// reference: a single query selects from its own column excluding
// itself; a multi-source set aggregates whole columns in query order
// (duplicates weigh double) and excludes every query node.
func refTopK(cols map[int][]float64, queries []int, k int) []topk.Item {
	if len(queries) == 1 {
		q := queries[0]
		return topk.Select(cols[q], k, q)
	}
	agg := make([]float64, len(cols[queries[0]]))
	for _, q := range queries {
		for i, v := range cols[q] {
			agg[i] += v
		}
	}
	exclude := make(map[int]bool, len(queries))
	for _, q := range queries {
		exclude[q] = true
	}
	return topk.SelectSet(agg, k, exclude)
}

func sameMatches(t *testing.T, what string, got []Match, want []topk.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Node != want[i].Node || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: match %d = {%d %x}, reference {%d %x}", what, i,
				got[i].Node, math.Float64bits(got[i].Score), want[i].Node, math.Float64bits(want[i].Score))
		}
	}
}

func samePairs(t *testing.T, what string, got []Pair, cols map[int][]float64, queries, targets []int) {
	t.Helper()
	if len(got) != len(queries)*len(targets) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(queries)*len(targets))
	}
	p := 0
	for _, q := range queries {
		for _, tg := range targets {
			want := cols[q][tg]
			if got[p].Query != q || got[p].Target != tg || math.Float64bits(got[p].Score) != math.Float64bits(want) {
				t.Fatalf("%s: pair %d = %+v, reference (%d, %d) %x", what, p, got[p], q, tg, math.Float64bits(want))
			}
			p++
		}
	}
}

// randomQuery draws q query nodes with duplicates likely: ids come from
// a pool smaller than n, so co-batched requests overlap too.
func randomQuery(rng *rand.Rand, n, q int) []int {
	pool := n / 3
	if pool < 2 {
		pool = n
	}
	out := make([]int, q)
	for i := range out {
		out[i] = rng.Intn(pool)
	}
	if q > 1 && rng.Intn(2) == 0 {
		out[q-1] = out[0] // force a duplicate
	}
	return out
}

// TestReducerMatchesColumnPath is the differential property test of the
// row-major reducer: for co-batched top-k and pair requests answered
// from one engine pass, every answer equals the deleted per-column path
// — ids and Float64bits of scores — across |Q| in {1, 2, 8, 64},
// duplicate query nodes, overlapping requests with different k, k >= n,
// salted NaN/±Inf/−0 outputs, exact ties, truncated ranks, and pairs
// whose targets are query nodes.
func TestReducerMatchesColumnPath(t *testing.T) {
	const n = 257
	rng := rand.New(rand.NewSource(7))
	engine := saltedEngine(n)
	for trial := 0; trial < 40; trial++ {
		rank := 0
		if trial%3 == 1 {
			rank = 2 // a degraded batch
		}
		var reqs []*request
		for r := 1 + rng.Intn(5); r > 0; r-- {
			q := []int{1, 2, 8, 64}[rng.Intn(4)]
			nodes := randomQuery(rng, n, q)
			if rng.Intn(4) == 0 {
				targets := append([]int{nodes[0], rng.Intn(n)}, nodes[len(nodes)-1])
				reqs = append(reqs, &request{ctx: context.Background(), nodes: nodes, targets: targets})
				continue
			}
			k := []int{1, 3, 10, 50, n}[rng.Intn(5)]
			reqs = append(reqs, &request{ctx: context.Background(), nodes: nodes, k: k})
		}
		uniq := map[int]bool{}
		for _, r := range reqs {
			for _, q := range r.nodes {
				uniq[q] = true
			}
		}
		nodes := make([]int, 0, len(uniq))
		for q := range uniq {
			nodes = append(nodes, q)
		}
		sort.Ints(nodes)
		s, err := engine(context.Background(), nodes, rank, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, resp := range answer(s, nodes, reqs) {
			req := reqs[i]
			cols := refColumns(n, rank, req.nodes)
			what := fmt.Sprintf("trial %d req %d (|Q|=%d k=%d rank=%d)", trial, i, len(req.nodes), req.k, rank)
			if req.k == 0 {
				samePairs(t, what, resp.pairs, cols, req.nodes, req.targets)
				continue
			}
			sameMatches(t, what, resp.matches, refTopK(cols, req.nodes, req.k))
		}
	}
}

// TestSearchMatchesColumnPathConcurrently drives the same property
// through the whole serving stack: concurrent callers co-batched by a
// strict-linger batcher, k above n clamped by the server, and a second
// server whose every request votes to degrade. Run under -race at
// GOMAXPROCS 1 and N (go test -race -cpu 1,4).
func TestSearchMatchesColumnPathConcurrently(t *testing.T) {
	const n = 193
	for _, degrade := range []bool{false, true} {
		cfg := Config{MaxBatch: 128, Linger: 2 * time.Millisecond, StrictLinger: true, Workers: 2, MaxK: 10 * n}
		rank := 0
		if degrade {
			cfg.Degrade = DegradeConfig{Rank: 3, MinBudget: time.Hour}
			cfg.Timeout = time.Minute
			rank = 3
		}
		sv := NewRanked(Ranked{N: n, Rank: 8, Query: saltedEngine(n)}, cfg)
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for c := 0; c < 24; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + c)))
				for i := 0; i < 6; i++ {
					q := []int{1, 2, 8, 64}[rng.Intn(4)]
					nodes := randomQuery(rng, n, q)
					cols := refColumns(n, rank, nodes)
					if i%3 == 2 {
						targets := []int{nodes[0], rng.Intn(n)}
						res, err := sv.Score(context.Background(), nodes, targets)
						if err != nil {
							errs <- err
							return
						}
						if res.Info.EffectiveRank != rank {
							errs <- fmt.Errorf("pairs answered at rank %d, want %d", res.Info.EffectiveRank, rank)
							return
						}
						for p, pr := range res.Pairs {
							if math.Float64bits(pr.Score) != math.Float64bits(cols[pr.Query][pr.Target]) {
								errs <- fmt.Errorf("client %d: pair %d = %+v differs from the column path", c, p, pr)
								return
							}
						}
						continue
					}
					k := []int{1, 5, 40, n + 7}[rng.Intn(4)]
					res, err := sv.Search(context.Background(), nodes, k)
					if err != nil {
						errs <- err
						return
					}
					if res.Info.EffectiveRank != rank {
						errs <- fmt.Errorf("search answered at rank %d, want %d", res.Info.EffectiveRank, rank)
						return
					}
					if k > n {
						k = n
					}
					want := refTopK(cols, nodes, k)
					if len(res.Matches) != len(want) {
						errs <- fmt.Errorf("client %d: %d matches, reference %d", c, len(res.Matches), len(want))
						return
					}
					for m := range want {
						got := res.Matches[m]
						if got.Node != want[m].Node || math.Float64bits(got.Score) != math.Float64bits(want[m].Score) {
							errs <- fmt.Errorf("client %d |Q|=%d k=%d: match %d = %+v, reference %+v", c, q, k, m, got, want[m])
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if occ := sv.Metrics().Snapshot()["mean_batch_occupancy"].(float64); occ <= 1 {
			t.Logf("degrade=%v: mean batch occupancy %v — requests did not co-batch this run", degrade, occ)
		}
		sv.Close()
	}
}

// TestSearchMulti64AllocatesNoColumns pins the allocation win: a
// |Q| = 64 Search over an n = 131,072 engine allocates far less than
// one n-long float64 vector per request — no column copies, no
// aggregate vector; the n x |Q| matrix itself is pooled.
func TestSearchMulti64AllocatesNoColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 64 MiB engine matrix")
	}
	const n = 1 << 17
	sv := NewRanked(Ranked{N: n, Rank: 8, Query: trivialEngine(n)}, Config{MaxBatch: 64, Workers: 1, MaxPending: 64})
	defer sv.Close()
	queries := make([]int, 64)
	for i := range queries {
		queries[i] = i * 2048
	}
	search := func() {
		if _, err := sv.Search(context.Background(), queries, 10); err != nil {
			t.Fatal(err)
		}
	}
	search() // the first pass allocates the pooled matrix
	// sync.Pool may drop the matrix (on GC, and at random under the race
	// detector), so steady state is the cheapest of several runs.
	var best uint64 = math.MaxUint64
	for i := 0; i < 8; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		search()
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b < best {
			best = b
		}
	}
	if best >= n*8 {
		t.Fatalf("|Q|=64 search allocated %d B, want < n*8 = %d", best, n*8)
	}
	t.Logf("|Q|=64 search over n=%d: %d B", n, best)
}
