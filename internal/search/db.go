package search

import (
	"fmt"
	"sort"

	"genomedsm/internal/bio"
	"genomedsm/internal/blast"
)

// DB is a prepared database: the records plus everything a scan derives
// from them that does not depend on the query — the canonical
// descending-length order behind the lane-group batching, the total
// base count, and (optionally) a database-side blast word index for the
// pruning prefilter. Build one DB per database and reuse it across
// scans: a resident server amortizes the preparation over millions of
// queries, and internal/dbpack persists exactly this state so a cold
// process loads it without re-parsing FASTA or re-sorting. A DB is
// read-only after construction and safe for concurrent scans.
type DB struct {
	recs   []bio.Record
	order  []int // canonical scan order: length desc, index asc on ties
	total  int64 // Σ record lengths
	ix     *blast.DBWordIndex
	layout *Layout // optional precomputed lane-group layout (layout.go)
}

// sortedOrder computes the canonical scan order of recs: decreasing
// sequence length, record index ascending on ties. The order is a
// strict total order, so it is unique — every scan of the same records
// forms identical lane groups, which is what keeps tie-breaks and
// padded-cell accounting reproducible across Run, RunBatch and a
// pack-loaded database.
func sortedOrder(recs []bio.Record) []int {
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := len(recs[order[a]].Seq), len(recs[order[b]].Seq)
		if la != lb {
			return la > lb
		}
		return order[a] < order[b]
	})
	return order
}

// NewDB prepares recs for scanning.
func NewDB(recs []bio.Record) *DB {
	d := &DB{recs: recs, order: sortedOrder(recs)}
	for _, r := range recs {
		d.total += int64(len(r.Seq))
	}
	return d
}

// PreparedDB builds a DB from records plus a precomputed scan order
// (a pack file stores the order so loading skips the sort). The order
// is validated against the canonical total order — length descending,
// index ascending on ties — because a permutation that merely looks
// sorted but breaks the tie rule would regroup records and silently
// change padded-cell accounting; the canonical order is unique, so
// checking adjacency pairs proves equality with what NewDB computes.
func PreparedDB(recs []bio.Record, order []int) (*DB, error) {
	if len(order) != len(recs) {
		return nil, fmt.Errorf("search: order holds %d entries for %d records", len(order), len(recs))
	}
	seen := make([]bool, len(recs))
	for rank, idx := range order {
		if idx < 0 || idx >= len(recs) {
			return nil, fmt.Errorf("search: order rank %d names record %d of %d", rank, idx, len(recs))
		}
		if seen[idx] {
			return nil, fmt.Errorf("search: order names record %d twice", idx)
		}
		seen[idx] = true
		if rank == 0 {
			continue
		}
		prev := order[rank-1]
		lp, li := len(recs[prev].Seq), len(recs[idx].Seq)
		if lp < li || (lp == li && prev > idx) {
			return nil, fmt.Errorf("search: order is not the canonical length-sorted order at rank %d", rank)
		}
	}
	d := &DB{recs: recs, order: order}
	for _, r := range recs {
		d.total += int64(len(r.Seq))
	}
	return d, nil
}

// SetWordIndex attaches a database-side blast word index; scans with
// Options.Prefilter whose word size matches seed the pruning floor from
// it instead of re-indexing per query. Call before the first scan.
func (d *DB) SetWordIndex(ix *blast.DBWordIndex) { d.ix = ix }

// WordIndex returns the attached word index, or nil.
func (d *DB) WordIndex() *blast.DBWordIndex { return d.ix }

// Records returns the underlying records (callers must not mutate).
func (d *DB) Records() []bio.Record { return d.recs }

// Order returns the canonical scan order (callers must not mutate).
func (d *DB) Order() []int { return d.order }

// Size returns the number of records.
func (d *DB) Size() int { return len(d.recs) }

// TotalBases returns the summed record lengths.
func (d *DB) TotalBases() int64 { return d.total }

// groups cuts the canonical order into consecutive lane groups of
// bio.PackedLanes8 records.
func (d *DB) groups() [][]int {
	const lanes = bio.PackedLanes8
	out := make([][]int, 0, (len(d.order)+lanes-1)/lanes)
	for lo := 0; lo < len(d.order); lo += lanes {
		out = append(out, d.order[lo:min(lo+lanes, len(d.order))])
	}
	return out
}
