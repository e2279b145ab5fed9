package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csrplus/internal/dense"
	"csrplus/internal/fault"
	"csrplus/internal/topk"
)

// batcher coalesces concurrent requests into multi-source engine calls
// and answers each of them straight from the pass's pooled result. The
// paper's complexity bound O(r(m + n(r + |Q|))) makes the marginal cost
// of one more query node tiny next to the per-call O(r(m + nr)) floor,
// so |Q| requests answered by one pass cost far less than |Q| passes —
// the same economics as dynamic batching in inference serving. A pending
// batch flushes when it reaches maxBatch unique nodes, when a pool
// worker is idle (waiting longer would add latency without improving
// throughput), or — with every worker busy — when the linger window
// expires. Duplicate nodes across co-batched requests are computed once
// and shared.
//
// Each in-flight batch borrows one n x |Q| scratch matrix from a
// sync.Pool, the engine pass writes [S]_{*,Q} into it, and the worker
// answers every co-batched request in one row-major pass over it (see
// answer) before returning it to the pool: no per-column copies and no
// per-request O(n) buffers.
//
// When a degraded rank is configured, a batch runs truncated — trading
// accuracy bounded by the factor tail for an r'/r cost reduction — if any
// of its requests asked for degradation (deadline pressure, decided at
// admission) or the batcher itself is under load pressure at flush time
// (queue depth past the threshold, or requests shed since the last
// batch). The effective rank travels back with every response so callers
// can tag what they served.
type batcher struct {
	queryFn  RankQueryFunc // nil: the backend serves through direct funcs only
	scratch  sync.Pool     // *dense.Mat, one per in-flight batch
	maxBatch int
	linger   time.Duration
	strict   bool
	metrics  *Metrics
	pool     *Pool

	degradedRank  int   // truncated rank under pressure; 0 = never degrade
	overloadDepth int64 // queue depth that counts as pressure; 0 = disabled
	prevShed      atomic.Int64

	mu     sync.RWMutex // guards closed vs. queue sends
	closed bool
	queue  chan *request
	done   chan struct{} // dispatch loop exited
	once   sync.Once
}

// request is one caller's question to a batch: the k best nodes by
// summed similarity to nodes (k > 0), or the score of every (node,
// target) pair (k == 0).
type request struct {
	ctx     context.Context
	nodes   []int
	k       int
	targets []int
	degrade bool          // admission-time vote to answer truncated
	out     chan response // buffered(1): abandoned callers never block a worker
}

type response struct {
	matches []Match
	pairs   []Pair
	rank    int // effective rank of the answering pass; 0 = full
	err     error
}

// newBatcher starts the dispatch loop and worker pool over a rank-aware
// engine. maxBatch is the most unique nodes per engine call — a request
// that would push a batch past it is left to seed the next batch, so the
// bound holds whenever no single request alone exceeds it (requests are
// indivisible: one whose own node set tops maxBatch forms its own
// oversized batch). linger is the longest a request waits for
// co-batching (0 batches only what is already queued), maxPending the
// admission bound beyond which requests are shed, workers the concurrent
// engine calls. strict disables the idle-worker eager flush: partial
// batches always wait for the size or linger trigger, maximising batch
// occupancy (throughput) at the cost of light-load latency. degradedRank
// and overloadDepth wire the graceful-degradation policy (both 0 for
// backends without rank structure).
func newBatcher(queryFn RankQueryFunc, maxBatch int, linger time.Duration, maxPending, workers int, strict bool, m *Metrics, degradedRank int, overloadDepth int64) *batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if maxPending < 1 {
		maxPending = 1
	}
	if m == nil {
		m = NewMetrics()
	}
	b := &batcher{
		queryFn:       queryFn,
		maxBatch:      maxBatch,
		linger:        linger,
		strict:        strict,
		metrics:       m,
		pool:          NewPool(workers),
		degradedRank:  degradedRank,
		overloadDepth: overloadDepth,
		queue:         make(chan *request, maxPending),
		done:          make(chan struct{}),
	}
	go b.run()
	return b
}

// submit admits req and waits for the batch that answers it. Fails fast
// with ErrOverloaded when the admission queue is full, ErrClosed after
// Close, and ctx.Err() when the caller's deadline expires before the
// batch completes. The response's rank is the effective rank of the pass
// that answered (0 = full) — it can be truncated even when this caller
// did not vote to degrade (overload pressure, or a co-batched caller's
// vote), and full when it did (degradation not configured).
func (b *batcher) submit(req *request) response {
	req.out = make(chan response, 1)

	// The read-lock spans only the non-blocking enqueue, so Close's write
	// lock cannot be acquired mid-send: after Close sets closed, no sender
	// can be inside this critical section when the queue is closed.
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		b.metrics.rejected.Add(1)
		return response{err: ErrClosed}
	}
	select {
	case b.queue <- req:
		b.mu.RUnlock()
		b.metrics.admitted.Add(1)
		b.metrics.queueDepth.Add(1)
	default:
		b.mu.RUnlock()
		b.metrics.shed.Add(1)
		return response{err: ErrOverloaded}
	}

	select {
	case resp := <-req.out:
		return resp
	case <-req.ctx.Done():
		b.metrics.expired.Add(1)
		return response{err: req.ctx.Err()}
	}
}

// Close stops admission, flushes every pending request, waits for
// in-flight batches to finish, and returns. Idempotent.
func (b *batcher) Close() {
	b.once.Do(func() {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		close(b.queue)
		<-b.done
		b.pool.Close()
	})
}

// run is the dispatch loop: it accumulates requests, tracking the unique
// node set, and flushes to the worker pool on size or linger triggers.
func (b *batcher) run() {
	defer close(b.done)
	var (
		pending []*request
		uniq    = make(map[int]struct{})
		timer   *time.Timer
		lingerC <-chan time.Time
	)
	absorb := func(req *request) {
		pending = append(pending, req)
		for _, n := range req.nodes {
			uniq[n] = struct{}{}
		}
	}
	// overflows reports whether absorbing req would push the batch past
	// maxBatch unique nodes. A request is indivisible, so the bound can
	// only be respected by leaving req for the next batch — except when
	// the batch is empty, where a single oversized request necessarily
	// forms its own (oversized) batch.
	overflows := func(req *request) bool {
		if len(pending) == 0 {
			return false
		}
		fresh := 0
		for _, n := range req.nodes {
			if _, ok := uniq[n]; !ok {
				fresh++
			}
		}
		return len(uniq)+fresh > b.maxBatch
	}
	flush := func() {
		if len(pending) == 0 {
			return
		}
		batch := pending
		pending = nil
		uniq = make(map[int]struct{})
		if timer != nil {
			timer.Stop()
		}
		lingerC = nil
		b.pool.Submit(func() { b.runBatch(batch) })
	}
	for {
		select {
		case req, ok := <-b.queue:
			if !ok {
				flush()
				return
			}
			// A request that would overflow the unique-node bound closes
			// the current batch (it is as full as it can get) and seeds
			// the next one.
			if overflows(req) {
				flush()
			}
			absorb(req)
			// Greedily absorb whatever is already queued: back-to-back
			// arrivals batch together even with linger = 0.
		drain:
			for len(uniq) < b.maxBatch {
				select {
				case more, ok := <-b.queue:
					if !ok {
						flush()
						return
					}
					if overflows(more) {
						flush()
					}
					absorb(more)
				default:
					break drain
				}
			}
			// Flush now if the batch is full, lingering is disabled, or
			// (outside strict mode) a worker would otherwise sit idle —
			// holding a partial batch only pays when every worker is busy
			// anyway. Otherwise arm the linger timer as the upper bound
			// on queueing delay.
			if len(uniq) >= b.maxBatch || b.linger <= 0 || (!b.strict && b.pool.Idle()) {
				flush()
			} else if lingerC == nil {
				timer = time.NewTimer(b.linger)
				lingerC = timer.C
			}
		case <-lingerC:
			lingerC = nil
			flush()
		case <-b.pool.Freed():
			// A worker came free; hand it the partial batch immediately
			// (strict mode keeps waiting for the size/linger trigger).
			if !b.strict && len(pending) > 0 && b.pool.Idle() {
				flush()
			}
		}
	}
}

// overloaded reports whether the batcher is under enough pressure that
// answering cheap beats answering exact: the admission queue is past the
// configured depth, or requests were shed since the last batch (the queue
// hit its hard bound — the strongest possible signal).
func (b *batcher) overloaded() bool {
	if b.overloadDepth <= 0 {
		return false
	}
	shed := b.metrics.shed.Load()
	if b.prevShed.Swap(shed) < shed {
		return true
	}
	return b.metrics.queueDepth.Load() > b.overloadDepth
}

// batchContext derives a context that is live while at least one of the
// batch's callers still is: each request's context decrements a counter
// as it expires, and the last one cancels the batch. The engine pass
// checks it between row bands, so a batch every caller has abandoned
// releases its pool worker mid-pass instead of computing into the void.
func batchContext(reqs []*request) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	remaining := int64(len(reqs))
	var counted atomic.Int64
	stops := make([]func() bool, 0, len(reqs))
	for _, req := range reqs {
		stops = append(stops, context.AfterFunc(req.ctx, func() {
			if counted.Add(1) == remaining {
				cancel()
			}
		}))
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}

// runBatch executes one coalesced engine call on a pool worker and
// answers every live caller from its result.
func (b *batcher) runBatch(reqs []*request) {
	defer b.metrics.queueDepth.Add(-int64(len(reqs)))

	// Skip requests whose caller has already given up; don't waste an
	// engine pass (or widen this one) on their nodes.
	live := reqs[:0]
	for _, req := range reqs {
		if req.ctx.Err() != nil {
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	uniq := make(map[int]struct{})
	degrade := false
	for _, req := range live {
		degrade = degrade || req.degrade
		for _, n := range req.nodes {
			uniq[n] = struct{}{}
		}
	}
	nodes := make([]int, 0, len(uniq))
	for n := range uniq {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes) // deterministic engine input regardless of arrival order

	rank := 0
	if b.degradedRank > 0 && (degrade || b.overloaded()) {
		rank = b.degradedRank
		b.metrics.degradedBatches.Add(1)
	}

	b.metrics.batches.Add(1)
	b.metrics.nodes.Add(int64(len(nodes)))
	b.metrics.BatchOccupancy.Observe(float64(len(nodes)))

	ctx, release := batchContext(live)
	err := fault.Hit(fault.SiteBatchQuery) // chaos builds: engine-level latency/failure
	var s *dense.Mat
	if err == nil {
		s, err = b.pass(ctx, nodes, rank)
	}
	release()
	if err != nil {
		for _, req := range live {
			req.out <- response{err: err}
		}
		return
	}
	for i, resp := range answer(s, nodes, live) {
		resp.rank = rank
		live[i].out <- resp
	}
	b.scratch.Put(s) // every answer is built; the matrix is free for the next batch
}

// pass runs the engine over nodes into a pooled scratch matrix. The
// caller returns the result to b.scratch once it has answered from it.
func (b *batcher) pass(ctx context.Context, nodes []int, rank int) (*dense.Mat, error) {
	if b.queryFn == nil {
		// Wire routers never materialise n x |Q| columns: a request that
		// reaches the batcher there is a caller error, not a missing
		// feature.
		return nil, fmt.Errorf("%w: this backend serves top-k and targeted scores only (no column path)", ErrBadRequest)
	}
	if fault.ShouldFailAlloc(fault.SiteScratchAlloc) {
		return nil, fault.ErrAllocFailed
	}
	scratch, _ := b.scratch.Get().(*dense.Mat)
	s, err := b.queryFn(ctx, nodes, rank, scratch)
	if err != nil {
		if scratch != nil {
			b.scratch.Put(scratch)
		}
		return nil, err
	}
	return s, nil // s is scratch when it had capacity, else its grown replacement
}

// answer serves every request of one batch from the engine pass's
// n x |nodes| matrix s (column j scores nodes[j]), returning one response
// per request in order. Top-k requests are answered in one row-major
// pass: each row is read once, and every top-k request sums its own
// columns of that row in its own query order — duplicates counted twice,
// accumulated onto zero, a single query taken as is — which is exactly
// the per-node aggregate of summing whole columns in query order, so
// the scores are bitwise those of a column-at-a-time reduce. The sum
// goes straight into the request's bounded top-k accumulator with every
// query node excluded. Pair requests read their (target, query) entries
// directly.
func answer(s *dense.Mat, nodes []int, reqs []*request) []response {
	type topReq struct {
		i    int   // the request's index in reqs
		cols []int // columns of the request's nodes, in query order
		acc  *topk.Acc
	}
	out := make([]response, len(reqs))
	tops := make([]topReq, 0, len(reqs))
	for i, req := range reqs {
		cols := make([]int, len(req.nodes))
		for c, q := range req.nodes {
			cols[c] = sort.SearchInts(nodes, q) // nodes is sorted and holds q
		}
		if req.k == 0 {
			out[i].pairs = pairs(s, req.nodes, cols, req.targets)
			continue
		}
		exclude := make(map[int]bool, len(req.nodes))
		for _, q := range req.nodes {
			exclude[q] = true
		}
		tops = append(tops, topReq{i: i, cols: cols, acc: topk.NewAcc(req.k, exclude)})
	}
	w := s.Cols
	for r := 0; len(tops) > 0 && r < s.Rows; r++ {
		row := s.Data[r*w : r*w+w]
		for _, t := range tops {
			var score float64
			if len(t.cols) == 1 {
				score = row[t.cols[0]]
			} else {
				for _, c := range t.cols {
					score += row[c]
				}
			}
			t.acc.Push(r, score)
		}
	}
	for _, t := range tops {
		out[t.i].matches = toMatches(t.acc.Items())
	}
	return out
}

// pairs reads the score of every (query, target) pair out of s, in
// query-major order; cols[i] is the column of queries[i].
func pairs(s *dense.Mat, queries, cols, targets []int) []Pair {
	out := make([]Pair, 0, len(queries)*len(targets))
	for i, q := range queries {
		for _, t := range targets {
			out = append(out, Pair{Query: q, Target: t, Score: s.At(t, cols[i])})
		}
	}
	return out
}
