package serve

import (
	"context"
	"math/rand"
	"testing"

	"csrplus/internal/dense"
)

// BenchmarkSearchHotPath measures the full per-request serving path —
// admission, batching, the engine call, top-k selection — over a trivial
// engine, so the framework itself (including the fault-injection hooks
// on the batch and scratch-allocation sites) is what is timed. Run it
// with and without -tags faultinject to confirm the instrumentation is
// free in production builds and within noise when compiled in but
// unarmed:
//
//	go test -run='^$' -bench=SearchHotPath ./internal/serve/
//	go test -run='^$' -bench=SearchHotPath -tags faultinject ./internal/serve/
func BenchmarkSearchHotPath(b *testing.B) {
	const n = 2048
	queryFn := func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
		if scratch == nil {
			return dense.NewMat(n, len(queries)), nil
		}
		return scratch.Reuse(n, len(queries)), nil
	}
	sv := NewRanked(
		Ranked{N: n, Rank: 8, Bound: func(int) float64 { return 0 }, Query: queryFn},
		Config{MaxBatch: 1, Workers: 1, MaxPending: 64},
	)
	defer sv.Close()

	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.Search(ctx, []int{i % n}, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// trivialEngine is a pass that does no arithmetic: it hands back the
// pooled scratch reshaped, and fills only a freshly allocated matrix
// (with a fixed pseudo-random spread, so selection sees realistic score
// distributions rather than all-zero ties). What is timed around it is
// the serving path: batching, the row-major reduce and top-k selection.
func trivialEngine(n int) RankQueryFunc {
	return func(_ context.Context, queries []int, _ int, scratch *dense.Mat) (*dense.Mat, error) {
		if scratch != nil && cap(scratch.Data) >= n*len(queries) {
			return scratch.Reuse(n, len(queries)), nil
		}
		m := dense.NewMat(n, len(queries))
		rng := rand.New(rand.NewSource(1))
		for i := range m.Data {
			m.Data[i] = rng.Float64()
		}
		return m, nil
	}
}

// BenchmarkSearchMulti64 is the serving path at a realistic shape: a
// |Q| = 64 aggregate top-k over n = 131,072 nodes (the perfbench graph
// size), so the cost of answering from the engine's n x |Q| block — and
// the bytes allocated per request — are what is measured:
//
//	go test -run='^$' -bench=SearchMulti64 -benchmem ./internal/serve/
func BenchmarkSearchMulti64(b *testing.B) {
	const n = 1 << 17
	sv := NewRanked(
		Ranked{N: n, Rank: 8, Bound: func(int) float64 { return 0 }, Query: trivialEngine(n)},
		Config{MaxBatch: 64, Workers: 1, MaxPending: 64},
	)
	defer sv.Close()
	queries := make([]int, 64)
	ctx := context.Background()
	search := func(i int) {
		for j := range queries {
			queries[j] = (i*64 + j*2039) % n
		}
		if _, err := sv.Search(ctx, queries, 10); err != nil {
			b.Fatal(err)
		}
	}
	search(0) // the first pass allocates the pooled n x |Q| matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search(i)
	}
}
