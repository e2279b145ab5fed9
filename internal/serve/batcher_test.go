package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csrplus/internal/dense"
)

// fakeEngine counts calls and returns recognisable columns: column of
// node q has value float64(q) at every index.
type fakeEngine struct {
	n     int
	calls atomic.Int64
	delay time.Duration
	gate  chan struct{} // when non-nil, every call blocks until it closes
	err   error
}

func (f *fakeEngine) query(ctx context.Context, queries []int, _ int, scratch *dense.Mat) (*dense.Mat, error) {
	f.calls.Add(1)
	if f.gate != nil {
		<-f.gate
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.err != nil {
		return nil, f.err
	}
	m := scratch.Reuse(f.n, len(queries))
	for j, q := range queries {
		for i := 0; i < f.n; i++ {
			m.Set(i, j, float64(q))
		}
	}
	return m, nil
}

// ask submits a score request for target 0 against every node and
// returns the scores in node order.
func ask(b *batcher, ctx context.Context, nodes []int) ([]float64, error) {
	resp := b.submit(&request{ctx: ctx, nodes: nodes, targets: []int{0}})
	if resp.err != nil {
		return nil, resp.err
	}
	scores := make([]float64, len(resp.pairs))
	for i, p := range resp.pairs {
		scores[i] = p.Score
	}
	return scores, nil
}

func TestBatcherCoalescesConcurrentRequests(t *testing.T) {
	// The 1ms engine keeps both workers busy, so later arrivals pile into
	// shared batches instead of each flushing to an idle worker.
	eng := &fakeEngine{n: 64, delay: time.Millisecond}
	b := newBatcher(eng.query, 64, 20*time.Millisecond, 256, 2, false, NewMetrics(), 0, 0)
	defer b.Close()

	const clients = 24
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			scores, err := ask(b, context.Background(), []int{i % 8})
			if err != nil {
				errs[i] = err
				return
			}
			if got := scores[0]; got != float64(i%8) {
				errs[i] = errors.New("wrong column content")
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if calls := eng.calls.Load(); calls >= clients {
		t.Fatalf("no coalescing: %d engine calls for %d requests", calls, clients)
	}
}

func TestBatcherDedupesNodesWithinBatch(t *testing.T) {
	var mu sync.Mutex
	var widths []int
	eng := &fakeEngine{n: 16}
	counting := func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
		mu.Lock()
		widths = append(widths, len(queries))
		mu.Unlock()
		return eng.query(ctx, queries, rank, scratch)
	}
	b := newBatcher(counting, 64, 20*time.Millisecond, 256, 1, false, NewMetrics(), 0, 0)
	defer b.Close()

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := ask(b, context.Background(), []int{7}); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, w := range widths {
		if w != 1 {
			t.Fatalf("16 requests for the same node produced a batch of width %d, want 1", w)
		}
	}
}

func TestBatcherFlushesOnMaxBatch(t *testing.T) {
	eng := &fakeEngine{n: 64}
	// Huge linger: only the size trigger can flush. Every request carries
	// maxBatch distinct nodes, so each absorption crosses the threshold
	// and the timer path is never taken.
	b := newBatcher(eng.query, 4, time.Hour, 256, 2, false, NewMetrics(), 0, 0)
	defer b.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nodes := []int{4 * i, 4*i + 1, 4*i + 2, 4*i + 3}
			if _, err := ask(b, context.Background(), nodes); err != nil {
				t.Error(err)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("size-triggered flush never happened")
	}
}

func TestBatcherFlushesIdleWorkerImmediately(t *testing.T) {
	eng := &fakeEngine{n: 8}
	// maxBatch and linger both huge: with an idle worker, a lone request
	// must still flush immediately instead of waiting out the linger.
	b := newBatcher(eng.query, 1024, time.Hour, 256, 1, false, NewMetrics(), 0, 0)
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		_, err := ask(b, context.Background(), []int{3})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle-worker flush never happened")
	}
}

func TestBatcherLingerFlushesWhileWorkersBusy(t *testing.T) {
	m := NewMetrics()
	gate := make(chan struct{})
	eng := &fakeEngine{n: 16, gate: gate}
	b := newBatcher(eng.query, 1024, 5*time.Millisecond, 64, 1, false, m, 0, 0)

	results := make(chan error, 3)
	launch := func(node int) {
		go func() {
			_, err := ask(b, context.Background(), []int{node})
			results <- err
		}()
	}
	// A occupies the only worker.
	launch(0)
	waitFor(t, func() bool { return eng.calls.Load() == 1 })
	// B pends with no idle worker; only the linger timer can flush it.
	launch(1)
	// Give the linger window ample time to commit the {B} batch (the
	// dispatch loop then blocks handing it to the busy pool) ...
	time.Sleep(30 * time.Millisecond)
	// ... so C, arriving after, must land in a separate third batch.
	launch(2)
	waitFor(t, func() bool { return m.Admitted() == 3 })
	close(gate)
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	if calls := eng.calls.Load(); calls != 3 {
		t.Fatalf("engine calls = %d, want 3: linger flush did not commit {B} before C arrived", calls)
	}
	b.Close()
}

func TestBatcherStrictLingerCoalescesDespiteIdleWorkers(t *testing.T) {
	var mu sync.Mutex
	var widths []int
	eng := &fakeEngine{n: 16}
	counting := func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
		mu.Lock()
		widths = append(widths, len(queries))
		mu.Unlock()
		return eng.query(ctx, queries, rank, scratch)
	}
	// Strict mode with 4 idle workers: requests must still wait for the
	// size trigger (maxBatch 4), producing one full-width call where the
	// eager policy would have flushed up to 4 singleton batches.
	b := newBatcher(counting, 4, time.Minute, 64, 4, true, NewMetrics(), 0, 0)
	defer b.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := ask(b, context.Background(), []int{i}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(widths) != 1 || widths[0] != 4 {
		t.Fatalf("batch widths = %v, want one batch of width 4", widths)
	}
}

// TestBatcherNeverExceedsMaxBatch is the regression test for the greedy
// drain overshoot: the old loop checked the bound before absorbing, so a
// queued multi-node request could push a batch far past maxBatch unique
// nodes. Disjoint 3-node requests against maxBatch = 4 make any
// co-batched pair (6 uniques) a violation.
func TestBatcherNeverExceedsMaxBatch(t *testing.T) {
	const maxBatch = 4
	var mu sync.Mutex
	var widths []int
	gate := make(chan struct{})
	eng := &fakeEngine{n: 64, gate: gate}
	counting := func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
		mu.Lock()
		widths = append(widths, len(queries))
		mu.Unlock()
		return eng.query(ctx, queries, rank, scratch)
	}
	b := newBatcher(counting, maxBatch, 5*time.Millisecond, 64, 1, true, NewMetrics(), 0, 0)
	defer b.Close()

	// Gate the single worker so requests pile up in the queue, forcing the
	// dispatch loop to drain several multi-node requests back-to-back.
	const clients = 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nodes := []int{3 * i, 3*i + 1, 3*i + 2} // disjoint trios
			_, errs[i] = ask(b, context.Background(), nodes)
		}(i)
	}
	waitFor(t, func() bool { return b.metrics.Admitted() == clients })
	time.Sleep(10 * time.Millisecond) // let the drain loop see a full queue
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, w := range widths {
		if w > maxBatch {
			t.Fatalf("engine call saw %d unique nodes, exceeding maxBatch %d (widths %v)", w, maxBatch, widths)
		}
	}
}

// A single request larger than maxBatch cannot be split: it must still be
// served, as its own oversized batch, rather than deadlock.
func TestBatcherOversizedSingleRequest(t *testing.T) {
	eng := &fakeEngine{n: 64}
	b := newBatcher(eng.query, 2, time.Millisecond, 8, 1, false, NewMetrics(), 0, 0)
	defer b.Close()
	scores, err := ask(b, context.Background(), []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 5 {
		t.Fatalf("got %d scores, want 5", len(scores))
	}
	for i, v := range scores {
		if v != float64(i+1) {
			t.Fatalf("scores = %v, want node i's column at position i", scores)
		}
	}
}

func TestBatcherOverload(t *testing.T) {
	m := NewMetrics()
	gate := make(chan struct{})
	eng := &fakeEngine{n: 8, gate: gate}
	b := newBatcher(eng.query, 1, 0, 1, 1, false, m, 0, 0)

	results := make(chan error, 8)
	launch := func(node int) {
		go func() {
			_, err := ask(b, context.Background(), []int{node})
			results <- err
		}()
	}
	// With the one worker gated, at most 3 requests can be held: one
	// executing, one in the dispatch loop blocked on Submit, one queued.
	// Each sequential launch either raises Admitted or Shed, so by the
	// 4th launch a shed is guaranteed.
	for i := 0; i < 4; i++ {
		admitted, shed := m.Admitted(), m.Shed()
		launch(i)
		waitFor(t, func() bool { return m.Admitted() > admitted || m.Shed() > shed })
		if m.Shed() > 0 {
			break
		}
	}
	if m.Shed() == 0 {
		t.Fatal("requests beyond capacity were never shed")
	}
	// Shed requests fail fast with the typed error; admitted ones all
	// complete once the engine unblocks.
	for i := int64(0); i < m.Shed(); i++ {
		if err := <-results; !errors.Is(err, ErrOverloaded) {
			t.Fatalf("shed request err = %v, want ErrOverloaded", err)
		}
	}
	close(gate)
	for i := int64(0); i < m.Admitted(); i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request: %v", err)
		}
	}
	b.Close()
}

func TestBatcherDeadline(t *testing.T) {
	m := NewMetrics()
	gate := make(chan struct{})
	eng := &fakeEngine{n: 8, gate: gate}
	b := newBatcher(eng.query, 1, 0, 8, 1, false, m, 0, 0)
	defer func() { close(gate); b.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	// Occupy the only worker so the deadline fires while queued/batched.
	go func() { _, _ = ask(b, context.Background(), []int{0}) }()
	waitFor(t, func() bool { return eng.calls.Load() == 1 })

	_, err := ask(b, ctx, []int{1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if m.Expired() != 1 {
		t.Fatalf("expired = %d, want 1", m.Expired())
	}
}

func TestBatcherPropagatesEngineError(t *testing.T) {
	boom := errors.New("boom")
	eng := &fakeEngine{n: 8, err: boom}
	b := newBatcher(eng.query, 8, 0, 8, 1, false, NewMetrics(), 0, 0)
	defer b.Close()
	if _, err := ask(b, context.Background(), []int{0}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestBatcherCloseDrainsAndRejects(t *testing.T) {
	eng := &fakeEngine{n: 8, delay: 5 * time.Millisecond}
	b := newBatcher(eng.query, 64, 50*time.Millisecond, 256, 2, false, NewMetrics(), 0, 0)

	// In-flight requests admitted before Close must still be answered.
	const clients = 8
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			_, err := ask(b, context.Background(), []int{i})
			errs <- err
		}(i)
	}
	m := b.metrics
	waitFor(t, func() bool { return m.Admitted() == clients })
	b.Close()
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("pre-close request failed: %v", err)
		}
	}
	if _, err := ask(b, context.Background(), []int{0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close err = %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(200 * time.Microsecond)
	}
}
