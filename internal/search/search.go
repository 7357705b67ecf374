// Package search implements a multicore Smith–Waterman database scan:
// one query against every record of a FASTA database, scored by the
// inter-sequence SWAR kernels of internal/swar and fanned out over a
// worker pool of host cores. It is the repo's first use of real
// parallel hardware for throughput — the cluster strategies elsewhere
// model a 2005 testbed in virtual time, while this layer answers the
// ROADMAP's "as fast as the hardware allows" for the database-search
// workload that DSA and SWAPHI target.
//
// The pipeline: records are ordered by decreasing length and cut into
// lane groups of 8 consecutive records, so the lanes of a group have
// near-equal length and the padded cells wasted on short lanes are
// minimized. Groups feed a shared work queue; each worker owns one
// swar.Aligner (reused row buffers) and a bounded top-K heap. Per-worker
// heaps merge into the global top K, and only those final hits pay for
// scalar re-alignment (align.Scan end coordinates + align.ReverseRetrieve
// start coordinates).
package search

import (
	"context"
	"fmt"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
)

// Options configures a database scan. The zero value scans with the
// paper's default scoring, top 10 hits and one worker per host core.
type Options struct {
	// Scoring is the column scoring scheme; zero means bio.DefaultScoring.
	Scoring bio.Scoring
	// TopK is the number of hits to keep (default 10).
	TopK int
	// Workers is the worker-pool size (default runtime.NumCPU()).
	Workers int
	// MinScore drops hits scoring below it; scores ≤ 0 are always dropped.
	MinScore int
	// Dispatch selects the routing mode of the lane groups: "" or "auto"
	// picks the fastest exact route per lane group by the calibrated cost
	// model of internal/dispatch, "fixed" reproduces the pre-dispatch
	// fixed thresholds (the int8 ladder, striped singletons), "scalar"
	// forces the exact scalar kernels. All modes return bit-identical
	// hits; only speed varies. Ignored when Router is set.
	Dispatch string
	// NoEndpoints skips the scalar re-alignment of the final hits, for
	// callers that only need scores.
	NoEndpoints bool
	// Prune enables the exact ALAE-style pruning pipeline (prune.go):
	// an O(1) record-level upper bound skips hopeless records and a
	// shared top-K floor lets the kernels abandon scans that provably
	// cannot reach the result. The hit set — scores, coordinates and
	// tie-breaks — is bit-identical with or without it.
	Prune bool
	// Prefilter additionally seeds the floor with blast seed-and-extend
	// lower bounds before any DP runs (stage 3; only with Prune).
	Prefilter bool
	// PrefilterWord is the prefilter seed word size (default 11).
	PrefilterWord int
	// AbandonEvery is the mid-scan abandon check cadence in query rows
	// (default swar.DefaultAbandonEvery).
	AbandonEvery int
	// Router, when non-nil, routes this scan's lane groups instead of a
	// router built from Dispatch: a resident server shares one
	// calibrated router — and its route statistics — across requests,
	// and a router with a ForceGroup hook pins every group to one route.
	// Routing never changes results, only speed.
	Router *dispatch.Router
}

// Hit is one database record in the top K.
type Hit struct {
	Index int    // record index in the database
	ID    string // FASTA record ID
	Score int    // exact best local-alignment score
	// Alignment span of the best hit, 1-based inclusive, filled by the
	// scalar re-alignment pass (zero when NoEndpoints is set).
	QBegin, QEnd int // in the query
	TBegin, TEnd int // in the target record
}

// Result is the outcome of a database scan.
type Result struct {
	Hits     []Hit
	Searched int   // records scored
	Cells    int64 // true DP cells: Σ |q|·|target|
	// PaddedCells counts the cells the packed kernels actually computed
	// (lane width × padded group length × rows scanned): the
	// padding-waste metric that the length-sorted batching keeps close
	// to Cells. Under pruning it shrinks with the abandoned rows and
	// skipped records, and — like the PruneStats — depends on worker
	// scheduling.
	PaddedCells int64
	// Prune holds the pruning statistics; nil when Options.Prune is off.
	Prune *PruneStats
}

// topK is a bounded min-heap of hits ordered by (score, then lower
// index wins ties), so the heap root is the weakest kept hit. A plain
// slice heap keeps the merge deterministic regardless of worker
// scheduling: every record that belongs to the global top K under the
// same total order survives its worker's local top K.
type topK struct {
	k     int
	items []Hit
}

// less orders a strictly below b: worse score first, higher index first
// on ties.
func (h *topK) less(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Index > b.Index
}

func (h *topK) push(it Hit) {
	if h.k <= 0 {
		return
	}
	if len(h.items) == h.k {
		if h.less(it, h.items[0]) || it == h.items[0] {
			return
		}
		h.items[0] = it
		h.siftDown(0)
		return
	}
	h.items = append(h.items, it)
	// Sift up.
	for i := len(h.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *topK) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < n && h.less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// Run scans the database for the best local alignments of q and returns
// the top-K hits sorted by decreasing score (record index breaks ties).
// Run prepares the database and scans it once; callers with many
// queries against one database should build a DB once (NewDB, or load a
// pack via internal/dbpack) and use RunCtx/RunBatch instead.
func Run(q bio.Sequence, db []bio.Record, opt Options) (*Result, error) {
	return RunCtx(context.Background(), q, NewDB(db), opt)
}

// Realign fills the alignment spans of the final hits with the exact
// kernels: align.Scan (striped when the scheme fits, scalar otherwise)
// finds the end cell, ReverseRetrieve walks back to the start. Only the
// K winners pay this cost, and the exact re-scan doubles as a safety
// net: a score disagreeing with the packed inter-sequence kernel is a
// kernel bug and is reported, never papered over. One Retriever serves
// the whole loop, so the sparse traceback arenas are allocated once.
// Exported for the shard master, which realigns only the merged global
// winners instead of every shard's local top K. A zero sc means
// bio.DefaultScoring.
func Realign(q bio.Sequence, db []bio.Record, sc bio.Scoring, hits []Hit) error {
	if sc == (bio.Scoring{}) {
		sc = bio.DefaultScoring()
	}
	var rt align.Retriever
	for i := range hits {
		h := &hits[i]
		t := db[h.Index].Seq
		// The hit's score is already known: passing it as ExpectScore
		// lets the scan skip packed rungs it proves will saturate.
		r, err := align.Scan(q, t, sc, align.ScanOptions{ExpectScore: h.Score})
		if err != nil {
			return err
		}
		if r.BestScore != h.Score {
			return fmt.Errorf("search: packed score %d for %q disagrees with scalar %d",
				h.Score, h.ID, r.BestScore)
		}
		al, _, err := rt.ReverseRetrieve(q, t, sc, r.BestI, r.BestJ, r.BestScore)
		if err != nil {
			return err
		}
		h.QBegin, h.QEnd = al.SBegin, al.SEnd
		h.TBegin, h.TEnd = al.TBegin, al.TEnd
	}
	return nil
}
