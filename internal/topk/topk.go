// Package topk selects the k highest-scoring nodes from a similarity
// column using a bounded min-heap — O(n log k) instead of a full sort,
// which matters when similarity searches over million-node graphs only
// need a short result list.
//
// Ordering contract: every selection and merge in this package orders
// items by descending score with ties broken by ascending node id, and
// the tie-break is part of the API — it is what makes a scatter–gather
// top-k over row-partitioned shards (internal/shard) return exactly the
// same items in exactly the same order as a single engine over the whole
// graph, at any shard count.
package topk

import (
	"math"
	"sort"
)

// Item pairs a node id with its similarity score.
type Item struct {
	Node  int
	Score float64
}

// itemLess is the package's one ordering: higher scores first, ties
// broken by smaller node id. Select's result order, Merge's result
// order, and the heap's eviction rule are all derived from it, so the
// selection is a deterministic function of the (score, node) multiset —
// never of input order, partitioning, or sort stability.
func itemLess(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Node < b.Node
}

// worse reports whether a ranks strictly below b under itemLess — the
// heap order of Acc, whose root is the worst item kept.
func worse(a, b Item) bool { return itemLess(b, a) }

// Acc accumulates the k best (node, score) candidates offered to it
// under the package ordering, in a bounded min-heap whose root is the
// worst item kept. It is the one selection every path in the module
// shares: SelectRange feeds it a score slice, and callers that score
// candidates on the fly (a row-major reduce over a query's column block)
// feed it one candidate at a time without materialising a score vector.
//
// Push compares a candidate against the heap's threshold before looking
// it up in the exclusion set, so once the heap is full the common case
// — a candidate no better than the k-th best so far — costs two float
// compares. NaN scores are skipped: NaN compares false with everything,
// so letting one into the heap would corrupt its invariant (and a NaN
// can reach here from a diverged or denormal similarity column). ±Inf
// orders normally and is kept. Candidates must carry distinct nodes.
type Acc struct {
	k       int
	exclude map[int]bool
	h       []Item
}

// NewAcc returns an accumulator for the k best candidates, dropping
// every node with exclude[node] == true (nil excludes nothing). k <= 0
// keeps nothing. The heap is allocated at capacity k, so callers clamp k
// to their candidate count.
func NewAcc(k int, exclude map[int]bool) *Acc {
	if k < 0 {
		k = 0
	}
	return &Acc{k: k, exclude: exclude, h: make([]Item, 0, k)}
}

// Push offers one candidate.
func (a *Acc) Push(node int, score float64) {
	// Full (or k == 0): only a candidate ranking above the root can
	// enter. NaN fails both compares in worse and is dropped here.
	if len(a.h) == a.k && (a.k == 0 || !worse(a.h[0], Item{node, score})) {
		return
	}
	a.admit(node, score)
}

// admit inserts a candidate that passed Push's threshold test, unless
// it is excluded (or, while the heap fills, NaN).
func (a *Acc) admit(node int, score float64) {
	if len(a.h) == a.k {
		if !a.exclude[node] {
			a.h[0] = Item{node, score}
			a.down(0, len(a.h))
		}
		return
	}
	if math.IsNaN(score) || a.exclude[node] {
		return
	}
	a.h = append(a.h, Item{node, score})
	a.up(len(a.h) - 1)
}

// Items returns the kept candidates ordered by descending score
// (ascending node id among ties) — never nil, empty when nothing was
// kept. The heap array is sorted in place and handed over, leaving the
// accumulator empty.
func (a *Acc) Items() []Item {
	h := a.h
	// Heapsort: the root is the worst kept item, so moving it to the end
	// of the shrinking heap leaves the array ordered best-first.
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		a.down(0, end)
	}
	a.h = nil
	return h
}

func (a *Acc) up(i int) {
	h := a.h
	for i > 0 {
		p := (i - 1) / 2
		if !worse(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// down restores the heap order below i within h[:n].
func (a *Acc) down(i, n int) {
	h := a.h
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && worse(h[r], h[l]) {
			m = r
		}
		if !worse(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Select returns the k highest-scoring items of scores, ordered by
// descending score (ascending node id among ties). exclude, when >= 0,
// drops that node (callers typically exclude the query node itself).
// k <= 0 returns nil; k beyond the candidate count returns all candidates.
//
// Multi-source callers that must drop every query node should use
// SelectSet; Select keeps the historical single-node signature as a thin
// wrapper over it.
func Select(scores []float64, k, exclude int) []Item {
	if exclude < 0 {
		return SelectRange(scores, k, 0, nil)
	}
	return SelectRange(scores, k, 0, map[int]bool{exclude: true})
}

// SelectSet is Select with an exclusion set: every node with
// exclude[node] == true is dropped from the candidates — the multi-source
// case, where all source nodes must be excluded from their own top-k,
// not just one. A nil map excludes nothing.
func SelectSet(scores []float64, k int, exclude map[int]bool) []Item {
	return SelectRange(scores, k, 0, exclude)
}

// SelectRange is the core selection: scores[i] belongs to node base+i,
// and the exclusion set holds those global node ids. It exists for
// row-partitioned shards, where a shard scores only its contiguous node
// range [base, base+len(scores)) but results and exclusions are in
// global ids; base 0 recovers SelectSet. NaN scores are skipped (see
// Acc).
func SelectRange(scores []float64, k, base int, exclude map[int]bool) []Item {
	if k <= 0 {
		return nil
	}
	if k > len(scores) {
		k = len(scores)
	}
	acc := NewAcc(k, exclude)
	for i, score := range scores {
		acc.Push(base+i, score)
	}
	return acc.Items()
}

// Merge combines per-shard partial top-k lists into the exact global
// top-k: the k best items of the union under the package ordering
// (descending score, ascending node id among ties). Each input list must
// itself be a top-k of its shard's candidates — then, because every
// candidate node lives in exactly one list, the merge of the partials is
// provably the top-k of the union of all candidates (any global top-k
// item is a top-k item of its own shard). The result is a deterministic
// function of the items alone: list order, list count, and score ties
// cannot change it, which is what makes scatter–gather results invariant
// to the shard count. Items are not deduplicated — callers guarantee
// node-disjoint inputs.
func Merge(k int, lists ...[]Item) []Item {
	if k <= 0 {
		return nil
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	all := make([]Item, 0, total)
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return itemLess(all[i], all[j]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}
