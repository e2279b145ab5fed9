package main

import (
	"encoding/json"
	"fmt"
	"math"

	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/topk"
)

type match struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// answer is the part of a /topk response body the benchmark checks.
type answer struct {
	Matches []match `json:"matches"`
	Cached  bool    `json:"cached"`
	// Degraded is present only when the answer is degraded: truncated
	// rank, missing shards, or drift past the budget.
	Degraded *struct {
		DriftBound float64 `json:"drift_bound"`
		ErrorBound float64 `json:"error_bound"`
	} `json:"degraded"`
}

func parseAnswer(body []byte) (answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("bad /topk body: %w", err)
	}
	return a, nil
}

// oracle recomputes answers in-process from the snapshot the server
// under test published: one engine pass over the query set, then
// selectTop.
type oracle struct {
	ix *core.Index
}

func openOracle(snapshot string) (*oracle, error) {
	ix, err := core.MapIndex(snapshot)
	if err != nil {
		return nil, fmt.Errorf("oracle: map %s: %w", snapshot, err)
	}
	return &oracle{ix: ix}, nil
}

func (o *oracle) close() { _ = o.ix.Close() }

func (o *oracle) expect(nodes []int, k int) ([]topk.Item, error) {
	m, err := o.ix.QueryInto(nodes, nil, nil)
	if err != nil {
		return nil, err
	}
	return selectTop(columns(m), nodes, k), nil
}

// columns copies the engine's output out column by column, one per query
// node.
func columns(m *dense.Mat) [][]float64 {
	cols := make([][]float64, m.Cols)
	for j := range cols {
		cols[j] = m.Col(j, nil)
	}
	return cols
}

// selectTop is the selection csrserver documents, over the engine's
// columns, one per query node: a single source excludes itself; a set
// ranks by summed columns, in query order, excluding every query node.
func selectTop(cols [][]float64, nodes []int, k int) []topk.Item {
	if len(nodes) == 1 {
		return topk.Select(cols[0], k, nodes[0])
	}
	agg := make([]float64, len(cols[0]))
	exclude := make(map[int]bool, len(nodes))
	for j, col := range cols {
		for i, v := range col {
			agg[i] += v
		}
		exclude[nodes[j]] = true
	}
	return topk.SelectSet(agg, k, exclude)
}

// check compares a served answer with the reference: the same ids in
// the same order, and scores equal to within float64 rounding of the
// JSON encoding (the encoder writes the shortest round-tripping form, so
// exact answers compare equal).
func check(got answer, want []topk.Item) error {
	if len(got.Matches) != len(want) {
		return fmt.Errorf("got %d matches, want %d", len(got.Matches), len(want))
	}
	for i, w := range want {
		g := got.Matches[i]
		if g.Node != w.Node {
			return fmt.Errorf("rank %d: node %d, want %d", i, g.Node, w.Node)
		}
		if math.Abs(g.Score-w.Score) > 1e-12*math.Max(1, math.Abs(w.Score)) {
			return fmt.Errorf("rank %d (node %d): score %v, want %v", i, g.Node, g.Score, w.Score)
		}
	}
	return nil
}

// verify checks every sampled read against the oracle and returns how
// many were wrong, with the first mismatch for the log.
func (o *oracle) verify(sample []*result) (wrong int, first error) {
	for _, r := range sample {
		a, err := parseAnswer(r.body)
		if err == nil {
			var want []topk.Item
			if want, err = o.expect(r.req.nodes, r.req.k); err == nil {
				err = check(a, want)
			}
		}
		if err != nil {
			wrong++
			if first == nil {
				first = fmt.Errorf("nodes %v: %w", abbrev(r.req.nodes), err)
			}
		}
	}
	return wrong, first
}

func abbrev(nodes []int) string {
	if len(nodes) <= 4 {
		return fmt.Sprint(nodes)
	}
	return fmt.Sprintf("%v... (%d nodes)", nodes[:4], len(nodes))
}
