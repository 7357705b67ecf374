package swar

import "genomedsm/internal/bio"

// This file holds the mid-scan early-abandon machinery of the search
// layer's ALAE-style exact pruning. A Bound threads a pruning threshold
// into the packed kernels: every cadence rows the kernel folds its
// running per-lane maximum, adds the query's remaining-suffix upper
// bound (bio.QueryBound) and abandons the scan when even that
// optimistic total is strictly below the threshold.
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

// DefaultAbandonEvery is the default abandon check cadence in query
// rows: rare enough that the fold and suffix lookup vanish against the
// row cost, frequent enough that an abandoned record wastes at most one
// cadence of rows past the provable cutoff.
const DefaultAbandonEvery = 64

// Bound configures the optional mid-scan early abandon of a packed
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
	// Every is the check cadence in query rows; ≤ 0 selects
	// DefaultAbandonEvery.
	Every int
}

// cadence returns the active check cadence, or 0 when the bound is
// disabled (nil receiver, no query bounds, or an unreachable
// threshold).
func (b *Bound) cadence() int {
	if b == nil || b.Query == nil || b.Below <= 0 {
		return 0
	}
	if b.Every > 0 {
		return b.Every
	}
	return DefaultAbandonEvery
}
