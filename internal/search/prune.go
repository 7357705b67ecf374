package search

import (
	"sync"
	"sync/atomic"

	"genomedsm/internal/bio"
	"genomedsm/internal/blast"
)

// This file holds the ALAE-style exact pruning pipeline of Run:
//
//   stage 1 — record-level skip: bio.QueryBound.RecordBound gives an
//     O(1) upper bound per record (best-case ungapped sum capped by
//     record and query length); records strictly below the shared
//     top-K floor never touch a kernel.
//   stage 2 — mid-scan abandon: the floor is threaded into the packed
//     kernels as a swar.Bound; every cadence rows the kernel checks
//     whether any lane can still reach it and bails when none can.
//   stage 3 — optional seed-and-extend prefilter: blast word seeding
//     plus ungapped X-drop extension yields an exact LOWER bound per
//     record, and the K-th best lower bound pre-seeds the floor before
//     any DP runs.
//
// All three stages prove scores strictly below the pruning threshold,
// and ties at the threshold are never pruned, so the surviving top-K
// set, scores, coordinates and tie-breaks are bit-identical to the
// unpruned scan — the differential and fuzz suites pin exactly that.

// PruneStats reports what the pruning pipeline did during one Run.
// Skipped + Abandoned + Scanned always equals the number of records
// searched; the split between them (and CellsSaved) depends on how fast
// the floor ratcheted, which varies with worker scheduling — callers
// must treat the counts as diagnostics, never as part of the result.
type PruneStats struct {
	// Skipped counts records dropped by the O(1) record-level bound
	// without touching a kernel.
	Skipped int
	// Abandoned counts records whose scan a kernel abandoned mid-matrix.
	Abandoned int
	// Scanned counts records scored to completion.
	Scanned int
	// CellsSaved estimates the true DP cells not computed: the full
	// |q|·|record| matrix for skipped records, plus the rows the
	// resolving kernel rung never reached for abandoned ones. Never
	// exceeds Result.Cells.
	CellsSaved int64
	// FloorFinal is the shared top-K score floor when the scan finished
	// (0 when fewer than K records produced eligible scores).
	FloorFinal int
}

// floorEntry is one record's best known score evidence in the shared
// floor heap: its exact score once scanned, or the prefilter's
// seed-and-extend lower bound before that.
type floorEntry struct {
	score int
	index int
}

// floorTracker maintains the shared top-K score floor that makes
// pruning global across workers: a bounded min-heap of per-record
// score evidence whose root — once K records are in — is published
// through an atomic, so the hot path reads the current floor without
// a lock. The floor only ever ratchets up, and is valid by
// construction: when get() returns f > 0, K distinct records are known
// to score ≥ f and to be result-eligible (callers only push eligible
// evidence, see push), so a record provably scoring < f cannot enter
// the final merged top K no matter how worker scheduling interleaves.
type floorTracker struct {
	floor   atomic.Int64
	mu      sync.Mutex
	k       int
	dedup   bool         // prefilter seeded the heap: pushes must dedup by index
	entries []floorEntry // min-heap on score
}

func newFloorTracker(k int) *floorTracker {
	return &floorTracker{k: k}
}

// get returns the current published floor (0 until K records have
// evidence).
func (f *floorTracker) get() int { return int(f.floor.Load()) }

// threshold folds the published floor with the caller's MinScore and
// the implicit "hits must score > 0" rule into the strict pruning
// threshold: a record provably scoring < threshold cannot appear in
// the result. Records tying the threshold are never pruned — a score
// equal to the floor can still win its place on the index tie-break.
func (f *floorTracker) threshold(minScore int) int {
	t := f.get()
	if minScore > t {
		t = minScore
	}
	if t < 1 {
		t = 1
	}
	return t
}

// push records score evidence for one record: its exact score after a
// completed scan, or a prefilter lower bound. Callers must only push
// evidence for result-eligible records (score ≥ max(MinScore, 1)),
// otherwise the floor could be propped up by records the result later
// drops. When the prefilter seeded the heap, a record already present
// is updated in place (lower bound upgraded to exact score), never
// counted twice — double-counting would overstate how many distinct
// records clear the floor and break the floor's validity.
func (f *floorTracker) push(score, index int) {
	if f.k <= 0 {
		return
	}
	// Fast path without the lock: once the heap is full every entry
	// scores ≥ the published floor, so evidence at or below it can
	// neither displace an entry nor improve one.
	if fl := f.floor.Load(); fl > 0 && int64(score) <= fl {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dedup {
		for i := range f.entries {
			if f.entries[i].index == index {
				if score > f.entries[i].score {
					f.entries[i].score = score
					f.siftDown(i)
					f.publish()
				}
				return
			}
		}
	}
	if len(f.entries) < f.k {
		f.entries = append(f.entries, floorEntry{score, index})
		for i := len(f.entries) - 1; i > 0; {
			parent := (i - 1) / 2
			if f.entries[parent].score <= f.entries[i].score {
				break
			}
			f.entries[i], f.entries[parent] = f.entries[parent], f.entries[i]
			i = parent
		}
		f.publish()
		return
	}
	if score > f.entries[0].score {
		f.entries[0] = floorEntry{score, index}
		f.siftDown(0)
		f.publish()
	}
}

func (f *floorTracker) siftDown(i int) {
	n := len(f.entries)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && f.entries[l].score < f.entries[smallest].score {
			smallest = l
		}
		if r < n && f.entries[r].score < f.entries[smallest].score {
			smallest = r
		}
		if smallest == i {
			return
		}
		f.entries[i], f.entries[smallest] = f.entries[smallest], f.entries[i]
		i = smallest
	}
}

// publish exposes the heap root as the floor once K records are in.
// The root never decreases (entries are only replaced by larger
// scores), so readers observe a monotonically ratcheting floor.
func (f *floorTracker) publish() {
	if len(f.entries) == f.k {
		f.floor.Store(int64(f.entries[0].score))
	}
}

// seedFloor runs the optional stage-3 prefilter: every record gets a
// blast seed-and-extend LOWER bound on its exact score, and the K best
// bounds pre-seed the floor so stage 1 and 2 start pruning from the
// first group instead of waiting for K full scans. Records without
// seed hits contribute no evidence and stay protected by the upper
// bounds, so exactness is preserved by construction. When the database
// carries a word index of the requested word size the query is looked
// up in it — one pass over the query instead of one pass over every
// record; otherwise a per-run query-side index seeds every record. Both
// produce true lower bounds, so either way the hit set is unchanged.
func seedFloor(ft *floorTracker, q bio.Sequence, db *DB, sc bio.Scoring, word, minScore int) {
	lo := max(minScore, 1)
	if ix := db.ix; ix != nil && ix.Word() == word {
		ft.dedup = true
		for i, lb := range ix.SeedScores(q, sc, 0) {
			if lb >= lo {
				ft.push(lb, i)
			}
		}
		return
	}
	ix := blast.NewWordIndex(q, word)
	if ix == nil {
		return
	}
	ft.dedup = true
	for i := range db.recs {
		if lb := ix.SeedScore(db.recs[i].Seq, sc, 0); lb >= lo {
			ft.push(lb, i)
		}
	}
}
