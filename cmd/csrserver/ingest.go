package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"csrplus"

	"csrplus/internal/ingest"
	"csrplus/internal/reload"
)

// setupIngest builds the cold streaming-ingestion service over the
// monolithic boot engine and anchors the boot generation's drift closure
// at baseline zero (Recover charges exactly the WAL tail past the
// snapshot's recorded sequence, which is exactly what the boot factors
// don't cover). The service is returned cold: the caller starts WAL
// replay (Recover) in the background so /readyz can honestly report
// not-ready while a long tail replays.
func setupIngest(g *csrplus.Graph, eng *csrplus.Engine, cand *reload.Candidate, walDir string, budget float64) (*ingest.Service, error) {
	ix, ok := eng.CoreIndex()
	if !ok {
		return nil, fmt.Errorf("-waldir requires the CSR+ algorithm")
	}
	svc, err := ingest.NewService(g.CoreGraph(), ix, ingest.Config{Dir: walDir, DriftBudget: budget})
	if err != nil {
		return nil, err
	}
	cand.Drift = svc.DriftFrom(0)
	return svc, nil
}

// ingestLoader replaces the static source loader once streaming ingestion
// is on: every reload cuts the live graph (boot base + replayed WAL +
// streamed edges), precomputes fresh factors over it, stamps the snapshot
// with the cut's WAL sequence so the next boot replays only the tail, and
// hands the reload manager a candidate whose drift closure is anchored at
// the cut.
func ingestLoader(src *source, svc *ingest.Service) reload.LoadFunc {
	return func(ctx context.Context) (*reload.Candidate, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !svc.Ready() {
			return nil, fmt.Errorf("ingest replay still in progress")
		}
		start := time.Now()
		live, seq, d0, err := svc.Cut()
		if err != nil {
			return nil, err
		}
		g := csrplus.FromCoreGraph(live)
		log.Printf("rebuilding %s index over live graph n=%d m=%d (wal seq %d, drift %.3g) ...",
			src.algo, g.N(), g.M(), seq, d0)
		eng, err := csrplus.NewEngine(g, csrplus.Options{Algorithm: src.algo, Rank: src.rank, Damping: src.damping})
		if err != nil {
			return nil, err
		}
		ix, ok := eng.CoreIndex()
		if !ok {
			return nil, fmt.Errorf("-waldir requires the CSR+ algorithm")
		}
		ix.SetWalSeq(seq)
		meta := reload.Meta{Source: "ingest-rebuild"}
		if src.snapDir != "" {
			gen, path, err := eng.SaveSnapshot(src.snapDir)
			if err != nil {
				_ = eng.Close()
				return nil, err
			}
			meta.Path, meta.SnapshotGen = path, gen
			log.Printf("live graph published as snapshot generation %d (%s, wal seq %d)", gen, path, seq)
		}
		st := eng.Stats()
		meta.Algorithm, meta.N, meta.M, meta.Rank = st.Algorithm, st.N, st.M, st.Rank
		meta.BuildTime = time.Since(start)
		meta.PeakBytes = st.PeakBytes
		return &reload.Candidate{
			N:         st.N,
			RankQuery: eng.QueryRankInto,
			Rank:      st.Rank,
			Bound:     eng.TruncationBound,
			Meta:      meta,
			Drift:     svc.DriftFrom(d0),
			Release:   func() { _ = eng.Close() },
		}, nil
	}
}

// reloadAndCommit runs one reload and settles the ingest drift baseline:
// a successful swap absorbs everything up to the loader's cut
// (RebuildDone(true)); a failure keeps the old baseline — and its honest
// drift accounting — so the next over-budget append re-fires the rebuild
// trigger. A coalesced trigger is left to the in-flight reload's own
// commit. svc may be nil (no ingestion configured).
func reloadAndCommit(ctx context.Context, man *reload.Manager, svc *ingest.Service) (reload.Status, error) {
	st, err := man.Reload(ctx)
	if svc != nil && !errors.Is(err, reload.ErrCoalesced) {
		svc.RebuildDone(err == nil)
	}
	return st, err
}
