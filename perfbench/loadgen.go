package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// request is one operation against a server: a read (GET /topk) or an
// edge-ingest write (POST /admin/edges).
type request struct {
	nodes []int  // query nodes of a read
	k     int    // k of a read
	body  []byte // JSON body of a write; nil for reads
}

func (r *request) write() bool { return r.body != nil }

// result is what the generator observed for one request. Latency counts
// from due, the time the schedule wanted the request sent, so a request
// that waited for a connection inside the generator pays that wait.
type result struct {
	req    *request
	due    time.Time
	done   time.Time
	status int
	body   []byte
	err    error
	late   time.Duration // how late the generator dispatched it: behind schedule (open loop) or after the previous answer (closed loop)
}

func (r *result) ok() bool { return r.err == nil && r.status == http.StatusOK }

func (r *result) latency() time.Duration { return r.done.Sub(r.due) }

// loadgen issues requests over at most conns concurrent keep-alive
// connections to one server.
type loadgen struct {
	client *http.Client
	conns  int
	token  string
}

func newLoadgen(conns int, token string) *loadgen {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &loadgen{client: &http.Client{Transport: tr, Timeout: 20 * time.Second}, conns: conns, token: token}
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// do sends one request to base and records the outcome.
func (lg *loadgen) do(base string, r *result) {
	var (
		hreq *http.Request
		err  error
	)
	if r.req.write() {
		hreq, err = http.NewRequest(http.MethodPost, base+"/admin/edges", bytes.NewReader(r.req.body))
		if err == nil {
			hreq.Header.Set("Authorization", "Bearer "+lg.token)
			hreq.Header.Set("Content-Type", "application/json")
		}
	} else {
		hreq, err = http.NewRequest(http.MethodGet, base+topkPath(r.req.nodes, r.req.k), nil)
	}
	if err != nil {
		r.err, r.done = err, time.Now()
		return
	}
	resp, err := lg.client.Do(hreq)
	if err != nil {
		r.err, r.done = err, time.Now()
		return
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.status, r.done = resp.StatusCode, time.Now()
	if r.err == nil && resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(r.body))
	}
}

func topkPath(nodes []int, k int) string {
	var b bytes.Buffer
	if len(nodes) == 1 {
		fmt.Fprintf(&b, "/topk?node=%d", nodes[0])
	} else {
		b.WriteString("/topk?nodes=")
		for i, q := range nodes {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", q)
		}
	}
	fmt.Fprintf(&b, "&k=%d", k)
	return b.String()
}

// openLoop sends reqs on a fixed schedule — request i is due at
// start + i/rate — regardless of how fast answers come back.
func (lg *loadgen) openLoop(base string, rate float64, reqs []*request) []*result {
	return lg.openLoopUntil(base, rate, func(i int) *request { return reqs[i] }, below(len(reqs)))
}

// openLoopUntil is openLoop over a generated stream: request i is next(i),
// due at start + i/rate, sent while more(i) holds. A due request that
// finds every connection busy queues inside the generator, and its
// latency still counts from its due time.
func (lg *loadgen) openLoopUntil(base string, rate float64, next func(int) *request, more func(int) bool) []*result {
	var out []*result
	fixedRate(lg.conns, rate, more, func(i int, due time.Time) *result {
		r := &result{req: next(i), due: due, late: time.Since(due)}
		out = append(out, r)
		return r
	}, func(r *result) { lg.do(base, r) })
	return out
}

// closedLoop runs clients that each send their next request only when
// the previous one answered, until d has passed. next hands out the
// seeded request stream in issue order.
func (lg *loadgen) closedLoop(base string, clients int, d time.Duration, next func() *request) ([]*result, time.Duration) {
	var (
		mu  sync.Mutex
		out []*result
	)
	elapsed := backToBack(clients, d, func(prev time.Time) {
		mu.Lock()
		r := &result{req: next()}
		out = append(out, r)
		mu.Unlock()
		r.due = time.Now()
		r.late = r.due.Sub(prev)
		lg.do(base, r)
	})
	return out, elapsed
}

// fixedRate is the open-loop schedule, over HTTP and in-process alike.
// Item i is made by item(i, due) on the dispatching goroutine, in order,
// while more(i) holds; it is due at start + i/rate. workers goroutines
// run the items; a due item that finds every worker busy waits in the
// queue.
func fixedRate[T any](workers int, rate float64, more func(int) bool, item func(i int, due time.Time) T, run func(T)) {
	// Deeper than any schedule a run offers, so the dispatcher never
	// blocks on busy workers and stays on time.
	jobs := make(chan T, 1<<16)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range jobs {
				run(it)
			}
		}()
	}
	start := time.Now().Add(5 * time.Millisecond)
	for i := 0; more(i); i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- item(i, due)
	}
	close(jobs)
	wg.Wait()
}

// below and index drive fixedRate over a prepared schedule of count
// items.
func below(count int) func(int) bool { return func(i int) bool { return i < count } }

func index(i int, _ time.Time) int { return i }

// backToBack is the closed-loop schedule: clients goroutines each call
// f again as soon as it returns, until d has passed. prev is when the
// client's previous call returned. It returns the wall time taken.
func backToBack(clients int, d time.Duration, f func(prev time.Time)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for prev := time.Now(); prev.Before(deadline); prev = time.Now() {
				f(prev)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
