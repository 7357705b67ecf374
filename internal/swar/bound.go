package swar

import (
	"sort"

	"genomedsm/internal/bio"
)

// This file holds the mid-scan early-abandon machinery of the search
// layer's ALAE-style exact pruning. A Bound threads a pruning threshold
// into the bounded kernels (packed, striped int8/int16, scalar): after
// each query row r from the first row where abandoning is possible, the
// kernel adds the query's remaining-suffix upper bound
// (bio.QueryBound) to its running maximum and abandons the scan when
// even that optimistic total is strictly below the threshold.
//
// Exactness: any local alignment of q against a lane either ends within
// the rows already scanned — its score is folded into the running
// maximum — or crosses row r, where its prefix value is a DP cell ≤ the
// running maximum and its remaining columns add at most SuffixBound(r).
// Either way score ≤ runningMax + SuffixBound(r), so when that sum is
// < Below for the maximum over all lanes, every lane is provably below
// the threshold. Saturated lanes are excluded as evidence (their
// running maximum is garbage); they ride the usual fallback ladder,
// where the wider retry gets its own chance to abandon.
//
// The first possible row: the running maximum is never negative, so no
// row r with SuffixBound(r) ≥ Below can ever satisfy the test — checking
// those rows is pure overhead. SuffixBound is non-increasing in r and 0
// at the last row, so the rows that can abandon form a suffix of the
// query, found once per scan by binary search; from there the kernels
// check every row. The last row is therefore always checked, and a
// bounded scan completes only when some lane's exact score reaches
// Below (or saturated its lane).

// Bound configures the optional mid-scan early abandon of a bounded
// scan. The zero value — and a nil *Bound — disables it.
type Bound struct {
	// Below is the strict pruning threshold: the scan may be abandoned
	// once every lane's exact score is provably < Below. Ties are never
	// pruned, so callers can skip records strictly below a result floor
	// while records tying it keep their chance on the tie-break.
	Below int
	// Query supplies the remaining-suffix upper bounds: a
	// bio.QueryBound built from the same query sequence and scoring
	// scheme as the scan. A nil Query disables the bound.
	Query *bio.QueryBound
}

// firstRow returns the first count of finished query rows at which the
// abandon test can succeed — the smallest r ≥ 1 with SuffixBound(r) <
// Below — or 0 when the bound is disabled (nil receiver, no query
// bounds, or an unreachable threshold).
func (b *Bound) firstRow() int {
	if b == nil || b.Query == nil || b.Below <= 0 {
		return 0
	}
	n := b.Query.QueryLen()
	return 1 + sort.Search(n, func(i int) bool { return b.Query.SuffixBound(i+1) < b.Below })
}

// abandon reports whether a scan that has finished rows query rows with
// running maximum best can stop: from is the scan's firstRow.
func (b *Bound) abandon(from, rows, best int) bool {
	return from != 0 && rows >= from && best+b.Query.SuffixBound(rows) < b.Below
}
