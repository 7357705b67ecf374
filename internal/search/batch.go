package search

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/swar"
)

// This file holds the multi-query scan engine behind Run, RunCtx and
// RunBatch. A batch shares one pass over the lane groups: every group a
// worker pulls is scored for every live query while its targets are hot,
// so per-scan costs (worker pool, group traversal, channel traffic) are
// paid once per batch instead of once per query — the shared-scan
// serving mode of the resident server. Sharing changes only scheduling:
// each query keeps its own top-K heap, pruning floor, query bound and
// adaptive routing state, so every completed query's result is
// bit-identical — hits, scores, coordinates, tie-breaks, cells — to a
// solo Run of the same query against the same DB with the same Options.

// BatchQuery is one query of a shared scan.
type BatchQuery struct {
	// Seq is the query sequence.
	Seq bio.Sequence
	// Ctx, when non-nil, cancels this query alone: the scan stops
	// spending kernel time on it at the next group boundary while the
	// rest of the batch continues. Nil means the batch context.
	Ctx context.Context
	// TopK overrides Options.TopK for this query (0 keeps it).
	TopK int
	// MinScore overrides Options.MinScore for this query (0 keeps it).
	MinScore int
	// FloorHint, when non-nil, supplies an externally proven pruning
	// floor that is folded into the query's own threshold (Options.Prune
	// only). The distributed layer feeds the gossiped global top-K floor
	// through it. The hint must obey the floor contract: when it returns
	// f > 0, at least K distinct result-eligible records of the full
	// search score ≥ f — then pruning strictly below max(local floor,
	// hint) stays exact. A stale (lower) hint is always safe, only
	// slower. Called concurrently from scan workers.
	FloorHint func() int
	// OnScore, when non-nil, observes every result-eligible exact score
	// (score > 0 and ≥ the query's MinScore) as it is pushed into the
	// heap, with the record's index in the scanned DB. The distributed
	// layer gossips these to the master as floor evidence. Called
	// concurrently from scan workers.
	OnScore func(score, index int)
	// OnGroup, when non-nil, runs after each lane group is scanned for
	// this query — a progress hook for gossip cadence and fault
	// injection. Called concurrently from scan workers.
	OnGroup func()
}

// BatchResult is one query's outcome. When Err is nil, Result is the
// full scan result, bit-identical to a solo Run. When Err reports the
// query's context (cancelled or past its deadline), Result carries
// partial diagnostics only — Searched/Cells/PaddedCells and prune
// counters for the records actually processed before the cancellation
// took effect, and no Hits: a partial top K is not a valid top K.
type BatchResult struct {
	Result *Result
	Err    error
}

// qstate is the per-query scan state.
type qstate struct {
	q        bio.Sequence
	ctx      context.Context
	k        int
	minScore int
	qb       *bio.QueryBound
	ft       *floorTracker
	scan     *dispatch.ScanState
	hint     func() int
	onScore  func(score, index int)
	onGroup  func()
	// cancelled latches the first ctx.Err observation so workers stop
	// probing the context once the query is dead.
	cancelled atomic.Bool
}

// done reports (and latches) whether the query's context has fired.
func (st *qstate) done() bool {
	if st.cancelled.Load() {
		return true
	}
	if st.ctx.Err() != nil {
		st.cancelled.Store(true)
		return true
	}
	return false
}

// RunCtx is Run over a prepared DB with a context: cancelling ctx stops
// the workers at the next group boundary and returns the context error.
func RunCtx(ctx context.Context, q bio.Sequence, db *DB, opt Options) (*Result, error) {
	brs, err := RunBatch(ctx, []BatchQuery{{Seq: q}}, db, opt)
	if err != nil {
		return nil, err
	}
	if brs[0].Err != nil {
		return nil, brs[0].Err
	}
	return brs[0].Result, nil
}

// RunBatch scans the database once for every query of the batch. The
// batch-level error is non-nil only when the whole scan failed (kernel
// error, batch context cancelled, invalid options); per-query context
// errors land in the matching BatchResult instead.
func RunBatch(ctx context.Context, queries []BatchQuery, db *DB, opt Options) ([]BatchResult, error) {
	sc := opt.Scoring
	if sc == (bio.Scoring{}) {
		sc = bio.DefaultScoring()
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	router, err := routerFor(opt)
	if err != nil {
		return nil, err
	}
	if len(queries) == 0 {
		return nil, nil
	}

	word := opt.PrefilterWord
	if word == 0 {
		word = 11
	}
	nq := len(queries)
	states := make([]*qstate, nq)
	for i, bq := range queries {
		st := &qstate{
			q: bq.Seq, ctx: bq.Ctx, k: bq.TopK, minScore: bq.MinScore,
			hint: bq.FloorHint, onScore: bq.OnScore, onGroup: bq.OnGroup,
		}
		if st.ctx == nil {
			st.ctx = ctx
		}
		if st.k <= 0 {
			st.k = opt.TopK
		}
		if st.k <= 0 {
			st.k = 10
		}
		if st.minScore == 0 {
			st.minScore = opt.MinScore
		}
		st.scan = router.NewScan()
		if opt.Prune {
			st.qb = bio.NewQueryBound(bq.Seq, sc)
			st.ft = newFloorTracker(st.k)
			if opt.Prefilter && !st.done() {
				seedFloor(st.ft, bq.Seq, db, sc, word, st.minScore)
			}
		}
		states[i] = st
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	groups := db.groups()
	if workers > len(groups) && len(groups) > 0 {
		workers = len(groups)
	}
	work := make(chan int)
	heaps := make([][]*topK, workers)
	errs := make([]error, workers)
	padded := make([][]int64, workers)
	pstats := make([][]PruneStats, workers)
	procRecs := make([][]int, workers)
	procCells := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var al swar.Aligner
			heaps[w] = make([]*topK, nq)
			for qi, st := range states {
				heaps[w][qi] = &topK{k: st.k}
			}
			padded[w] = make([]int64, nq)
			pstats[w] = make([]PruneStats, nq)
			procRecs[w] = make([]int, nq)
			procCells[w] = make([]int64, nq)
			targets := make([]bio.Sequence, 0, bio.PackedLanes8)
			kept := make([]int, 0, bio.PackedLanes8)
			gp := &groupProf{sc: sc}
			for gi := range work {
				group := groups[gi]
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				var groupBases int64
				for _, idx := range group {
					groupBases += int64(len(db.recs[idx].Seq))
				}
				// Every query of the batch scans this group with the same
				// query-independent packed profile: reset the lazy holder
				// once per work item, point it at the group's precomputed
				// layout words when the DB carries them. Singleton groups
				// take the striped path and never need it.
				use := (*groupProf)(nil)
				if len(group) > 1 {
					gp.reset(db, group)
					if db.layout != nil {
						gp.words = db.layout.GroupWords(gi)
					}
					use = gp
				}
				for qi, st := range states {
					if st.done() {
						continue
					}
					err := scanGroupFor(&al, st, db, group, sc, opt,
						heaps[w][qi], &pstats[w][qi], &padded[w][qi], targets, kept, use)
					if err != nil {
						errs[w] = err
						return
					}
					procRecs[w][qi] += len(group)
					procCells[w][qi] += int64(len(st.q)) * groupBases
					if st.onGroup != nil {
						st.onGroup()
					}
				}
			}
		}(w)
	}
	sweep := sweepOrder(states, db, len(groups))
feed:
	for i := range groups {
		gi := i
		if sweep != nil {
			gi = sweep[i]
		}
		select {
		case work <- gi:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out := make([]BatchResult, nq)
	for qi, st := range states {
		qerr := st.ctx.Err()
		res := &Result{}
		if qerr == nil {
			res.Searched = len(db.recs)
			res.Cells = int64(len(st.q)) * db.total
		} else {
			for w := range procRecs {
				if procRecs[w] != nil {
					res.Searched += procRecs[w][qi]
					res.Cells += procCells[w][qi]
				}
			}
		}
		for w := range padded {
			if padded[w] != nil {
				res.PaddedCells += padded[w][qi]
			}
		}
		if opt.Prune {
			pst := &PruneStats{FloorFinal: st.ft.get()}
			for w := range pstats {
				if pstats[w] == nil {
					continue
				}
				pst.Skipped += pstats[w][qi].Skipped
				pst.Abandoned += pstats[w][qi].Abandoned
				pst.Scanned += pstats[w][qi].Scanned
				pst.CellsSaved += pstats[w][qi].CellsSaved
			}
			res.Prune = pst
		}
		if qerr != nil {
			out[qi] = BatchResult{Result: res, Err: qerr}
			continue
		}
		merged := &topK{k: st.k}
		for w := range heaps {
			if heaps[w] == nil {
				continue
			}
			for _, it := range heaps[w][qi].items {
				merged.push(it)
			}
		}
		res.Hits = merged.items
		sort.Slice(res.Hits, func(a, b int) bool {
			x, y := res.Hits[a], res.Hits[b]
			if x.Score != y.Score {
				return x.Score > y.Score
			}
			return x.Index < y.Index
		})
		if !opt.NoEndpoints {
			if err := Realign(st.q, db.recs, sc, res.Hits); err != nil {
				return nil, err
			}
		}
		out[qi] = BatchResult{Result: res}
	}
	return out, nil
}

// sweepOrder returns the order in which RunBatch hands lane groups to
// the workers, or nil for the canonical order. When the prefilter has
// seeded a query's floor, the groups holding its K best-seeded records
// — the floorTracker entries, the likeliest members of the final top K
// — go first, in canonical order, and every other group follows in
// canonical order. Scanning those records first lifts each floor to
// (or near) its true K-th score after a few groups instead of whenever
// the sweep happens to reach them, so the rest of the scan skips or
// abandons against the tightest floor.
//
// The order changes cost only. Pruning is exact under any floor
// schedule — the same property worker interleaving and shard gossip
// rely on — and the merged top K is ordered by (score desc, index asc),
// which does not depend on the order groups were visited in.
func sweepOrder(states []*qstate, db *DB, ngroups int) []int {
	var seeded []bool
	for _, st := range states {
		if st.ft == nil {
			continue
		}
		// Before the scan starts, the only floor evidence is the
		// prefilter's seed lower bounds.
		for _, e := range st.ft.entries {
			if seeded == nil {
				seeded = make([]bool, len(db.recs))
			}
			seeded[e.index] = true
		}
	}
	if seeded == nil {
		return nil
	}
	first := make([]bool, ngroups)
	for rank, idx := range db.order {
		if seeded[idx] {
			first[rank/bio.PackedLanes8] = true
		}
	}
	order := make([]int, 0, ngroups)
	for _, lead := range []bool{true, false} {
		for gi, f := range first {
			if f == lead {
				order = append(order, gi)
			}
		}
	}
	return order
}

// groupProf lazily builds — at most once per work item — the
// query-independent int8 packed profile of one full lane group, shared
// by every query of the batch. With a DB layout attached the build
// refills the worker's one profile buffer from the precomputed
// interleaved words (the pack-v2 zero-copy path, no allocation once the
// buffer has grown to the longest group); otherwise it interleaves the
// record bytes once instead of once per query. Either build is
// bit-identical to the profile the kernels would construct per scan
// (TestPackedProfileFromWords pins the equivalence), so sharing changes
// cost only, never results.
type groupProf struct {
	words   []uint64       // the group's layout words; nil without a layout
	targets []bio.Sequence // full group targets in rank order
	lens    []int          // their lengths
	sc      bio.Scoring
	prof    *bio.PackedProfile
	tried   bool
	buf     bio.PackedProfile // reused by every from-words build
}

// reset points the holder at a new group and drops any cached profile.
func (g *groupProf) reset(db *DB, group []int) {
	g.words, g.prof, g.tried = nil, nil, false
	g.targets = g.targets[:0]
	g.lens = g.lens[:0]
	for _, idx := range group {
		t := db.recs[idx].Seq
		g.targets = append(g.targets, t)
		g.lens = append(g.lens, len(t))
	}
}

// profile returns the group's int8 packed profile, building it on first
// use; nil under exactly the conditions bio.NewPackedProfile8 returns
// nil, so callers fall back identically.
func (g *groupProf) profile() *bio.PackedProfile {
	if !g.tried {
		g.tried = true
		if g.words != nil {
			if g.buf.Reset8FromWords(g.words, g.lens, g.sc) {
				g.prof = &g.buf
			}
		} else {
			g.prof = bio.NewPackedProfile8(g.targets, g.sc)
		}
	}
	return g.prof
}

// scanGroupFor scores one lane group for one query: stage-1 record
// skipping against the query's floor, the routed kernel ladder, and the
// heap/floor pushes. This is the body of the original single-query Run
// worker, parameterized by query state.
func scanGroupFor(al *swar.Aligner, st *qstate, db *DB, group []int, sc bio.Scoring, opt Options,
	heap *topK, ps *PruneStats, padded *int64, targets []bio.Sequence, kept []int, gp *groupProf) error {
	q := st.q
	targets = targets[:0]
	kept = kept[:0]
	var ab *swar.Bound
	if opt.Prune {
		// Stage 1: the O(1) record bound against the floor read once per
		// group (a stale, lower floor only makes the check more
		// conservative — never wrong).
		th := st.ft.threshold(st.minScore)
		if st.hint != nil {
			// An external floor (the gossiped global top-K floor of the
			// shard layer) tightens the threshold: the hint's contract
			// guarantees K distinct eligible records of the full search
			// score ≥ it, so pruning strictly below it stays exact even
			// when this scan covers only a shard of that search.
			if h := st.hint(); h > th {
				th = h
			}
		}
		for _, idx := range group {
			t := db.recs[idx].Seq
			if st.qb.RecordBound(len(t)) < th {
				ps.Skipped++
				ps.CellsSaved += int64(len(q)) * int64(len(t))
				continue
			}
			kept = append(kept, idx)
		}
		ab = &swar.Bound{Below: th, Query: st.qb}
	} else {
		kept = append(kept, group...)
	}
	if len(kept) == 0 {
		return nil
	}
	if gp != nil && len(kept) != len(group) {
		// Stage-1 skips compacted the surviving lanes, so the full-group
		// profile no longer lines up lane for lane — the kernels rebuild
		// from the compacted targets as before.
		gp = nil
	}
	for _, idx := range kept {
		targets = append(targets, db.recs[idx].Seq)
	}
	res, err := scoreGroupRouted(al, q, targets, sc, st.scan, ab, gp)
	if err != nil {
		return err
	}
	*padded += res.Padded
	for i, idx := range kept {
		if res.Pruned[i] {
			ps.Abandoned++
			ps.CellsSaved += int64(len(q)-res.Rows[i]) * int64(len(targets[i]))
			continue
		}
		if opt.Prune {
			ps.Scanned++
		}
		if s := res.Scores[i]; s > 0 && s >= st.minScore {
			heap.push(Hit{Index: idx, ID: db.recs[idx].ID, Score: s})
			if st.ft != nil {
				st.ft.push(s, idx)
			}
			if st.onScore != nil {
				st.onScore(s, idx)
			}
		}
	}
	return nil
}
