// Package swar implements inter-sequence vectorized Smith–Waterman in
// pure Go via SWAR ("SIMD within a register"): one uint64 word carries
// the running scores of 8 int8 lanes (or 4 int16 lanes), each lane
// scanning a different target sequence against the same query. The
// style follows the inter-sequence vectorization of DSA (Xu et al.,
// arXiv:1701.01575) and SWAPHI (Liu & Schmidt, arXiv:1404.4152): because
// every lane is an independent pairwise comparison, the DP recurrence
// has no cross-lane dependencies and the scalar inner loop of
// align.Scan lifts to packed words unchanged.
//
// # Guard-bit arithmetic
//
// Local-alignment scores are never negative, so lanes hold unsigned
// magnitudes and the zero clamp max(0, ·) of the recurrence is the
// floor of a clamped subtract. Keeping each lane's *top bit free as a
// guard* (clean scores ≤ 127 per int8 lane, ≤ 32767 per int16 lane)
// buys two things:
//
//   - The diagonal term needs no saturating add: with the profile split
//     into non-negative match/mismatch magnitudes (bio.PackedProfile),
//     v = clamp(d − minus) + plus is exact and a *plain* word add — per
//     lane, exactly one of plus/minus is nonzero, lane sums stay below
//     256, and carries never cross a lane boundary.
//   - Subtracts of penalties p ≤ 127 use z = (x|hi) − p, which cannot
//     borrow across lanes because every byte of x|hi is ≥ 128 > p; the
//     guard bit of z doubles as the per-lane "did not underflow" flag
//     that implements the zero clamp.
//
// A lane whose value sets the guard bit may be about to overflow, so
// the kernel ORs every cell into a saturation accumulator; the first
// excess value is still computed exactly (sums stay within the lane),
// so a lane is either never flagged — and bit-exact against the scalar
// kernel — or flagged and retried with the next wider layout:
// int8 → int16 → the exact scalar kernel (scalar.go). Wrapped garbage in a
// flagged lane stays inside that lane (no operation carries or borrows
// across lane boundaries for any input), so neighbours are unaffected.
// The chain (Ladder) is bit-exact against align.Scan by construction.
package swar

import (
	"genomedsm/internal/bio"
)

// Guard-bit masks of the two packed widths: the per-lane top bits.
const (
	hi8  = 0x8080808080808080
	hi16 = 0x8000800080008000
)

// SubClamp8 returns per byte max(0, x−y), the zero-clamped subtract of
// the local recurrence, for penalty lanes y ≤ 127. The result lane is
// exact when the x lane is clean (≤ 127) and always ≤ 127; no borrow
// ever crosses a lane boundary, for any x.
func SubClamp8(x, y uint64) uint64 {
	z := (x | hi8) - y
	m := ((z & hi8) >> 7) * 0xFF
	return (z &^ hi8) & m
}

// MaxClamped8 returns the per-byte unsigned maximum for y lanes ≤ 127
// and any x: a lane with the guard bit set always beats y, otherwise
// the guard bit of (x|hi)−y decides. Exact for every x ≤ 255, y ≤ 127.
func MaxClamped8(x, y uint64) uint64 {
	z := (x | hi8) - y
	m := (((x | z) & hi8) >> 7) * 0xFF
	return (x & m) | (y &^ m)
}

// SubClamp16 and MaxClamped16 are the 4-lane uint16 variants, with the
// penalty bound 32767.
func SubClamp16(x, y uint64) uint64 {
	z := (x | hi16) - y
	m := ((z & hi16) >> 15) * 0xFFFF
	return (z &^ hi16) & m
}

// MaxClamped16 is the 4-lane uint16 maximum for y lanes ≤ 32767.
func MaxClamped16(x, y uint64) uint64 {
	z := (x | hi16) - y
	m := (((x | z) & hi16) >> 15) * 0xFFFF
	return (x & m) | (y &^ m)
}

// row8 advances one packed row of the zero-clamped local recurrence for
// all 8 lanes at once — the SWAR lift of align.swRow: per word,
//
//	cur[j] = max(clamp(prev[j-1] − minus[j]) + plus[j],
//	             clamp(prev[j] − gap), clamp(cur[j-1] − gap))
//
// with the zero clamp implicit in the clamped subtracts. It folds the
// row into the running guard-stripped per-lane maximum and ORs every
// cell into the saturation accumulator sat; lanes that ever set their
// guard bit in sat are unreliable and must be retried wider.
func row8(prev, cur, plus, minus []uint64, gapV, best, sat uint64) (uint64, uint64) {
	n := len(plus)
	d := prev[0]   // diag carry: prev[j-1]
	w := uint64(0) // left carry: cur[j-1]; the border column is all zero
	pr := prev[1:]
	out := cur[1:]
	_ = pr[n-1] // bounds hints for the loop body
	_ = out[n-1]
	_ = minus[n-1]
	for j := 0; j < n; j++ {
		v := SubClamp8(d, minus[j]) + plus[j]
		d = pr[j]
		v = MaxClamped8(v, SubClamp8(d, gapV))
		v = MaxClamped8(v, SubClamp8(w, gapV))
		out[j] = v
		w = v
		sat |= v
		best = MaxClamped8(best, v&^hi8)
	}
	return best, sat
}

// row16 is row8 for 4 uint16 lanes.
func row16(prev, cur, plus, minus []uint64, gapV, best, sat uint64) (uint64, uint64) {
	n := len(plus)
	d := prev[0]
	w := uint64(0)
	pr := prev[1:]
	out := cur[1:]
	_ = pr[n-1]
	_ = out[n-1]
	_ = minus[n-1]
	for j := 0; j < n; j++ {
		v := SubClamp16(d, minus[j]) + plus[j]
		d = pr[j]
		v = MaxClamped16(v, SubClamp16(d, gapV))
		v = MaxClamped16(v, SubClamp16(w, gapV))
		out[j] = v
		w = v
		sat |= v
		best = MaxClamped16(best, v&^hi16)
	}
	return best, sat
}

// LaneScores is the outcome of one packed scan.
type LaneScores struct {
	// Scores holds the per-lane best local-alignment score; only the
	// first Lanes entries are meaningful, and a lane flagged in
	// Saturated must not be trusted.
	Scores [bio.PackedLanes8]int
	// Saturated is the bitmask of lanes that ever set their guard bit:
	// their true score may exceed the clean lane range.
	Saturated uint8
	// Lanes is the number of live lanes (= number of targets scanned).
	Lanes int
	// Rows is the number of query rows the scan consumed: the full query
	// length for a completed scan, fewer when a Bound abandoned it.
	Rows int
	// Pruned reports that a bounded scan was abandoned mid-matrix: every
	// lane's exact score is provably below the bound's Below threshold.
	// Scores are then meaningless and Saturated is always zero (saturated
	// lanes are never used as abandon evidence).
	Pruned bool
}

// Aligner carries the reusable packed row buffers of one worker. The
// zero value is ready to use; an Aligner must not be shared between
// goroutines.
type Aligner struct {
	prev, cur   []uint64 // inter-sequence packed rows (Scan8/Scan16)
	sprev, scur []uint64 // striped rows (StripedScan8/StripedScan16)
	schg        []uint64 // striped correction-loop change mask
}

// rows returns the two row buffers of length words+1, with prev cleared
// (the zero top border) — cur is fully overwritten row by row and its
// border cell cur[0] is never read (the left carry starts at the
// constant zero column instead).
func (a *Aligner) rows(words int) ([]uint64, []uint64) {
	if cap(a.prev) < words+1 {
		a.prev = make([]uint64, words+1)
		a.cur = make([]uint64, words+1)
	}
	a.prev = a.prev[:words+1]
	a.cur = a.cur[:words+1]
	clear(a.prev)
	a.cur[0] = 0
	return a.prev, a.cur
}

// scanPacked runs the packed recurrence of q against prof and returns
// the folded guard-stripped per-lane maximum and the saturation word.
// Under a non-nil Bound it additionally abandons the scan (see Bound)
// once no lane can still reach the threshold, reporting how many rows
// it consumed and whether it pruned.
func (a *Aligner) scanPacked(q bio.Sequence, prof *bio.PackedProfile, gap int, ab *Bound) (best, sat uint64, rows int, pruned bool) {
	words := prof.Words()
	if words == 0 || len(q) == 0 {
		return 0, 0, len(q), false
	}
	prev, cur := a.rows(words)
	gapV := prof.Broadcast(gap)
	wide := prof.Lanes() == bio.PackedLanes16
	satMask := uint64(hi8)
	if wide {
		satMask = hi16
	}
	every := ab.cadence()
	next := every
	for i := 0; i < len(q); i++ {
		c := q[i]
		if wide {
			best, sat = row16(prev, cur, prof.PlusRow(c), prof.MinusRow(c), gapV, best, sat)
		} else {
			best, sat = row8(prev, cur, prof.PlusRow(c), prof.MinusRow(c), gapV, best, sat)
		}
		prev, cur = cur, prev
		if next != 0 && i+1 == next {
			next += every
			// A saturated lane's running maximum is untrustworthy, so it
			// is never abandon evidence; the wider retry re-checks.
			if sat&satMask == 0 {
				m := reduce8(best)
				if wide {
					m = reduce16(best)
				}
				if m+ab.Query.SuffixBound(i+1) < ab.Below {
					a.prev, a.cur = prev, cur
					return best, sat, i + 1, true
				}
			}
		}
	}
	a.prev, a.cur = prev, cur
	return best, sat, len(q), false
}

// Scan8 scores q against up to 8 targets in int8 lanes. ok is false
// when the scoring magnitudes do not fit the 7-bit clean lane range
// (callers then use Scan16 or the scalar path); lanes that overflow it
// are flagged Saturated in the result.
func (a *Aligner) Scan8(q bio.Sequence, targets []bio.Sequence, sc bio.Scoring) (LaneScores, bool) {
	ls, _, ok := a.scan8(q, targets, sc, nil, nil)
	return ls, ok
}

// Scan16 scores q against up to 4 targets in int16 lanes.
func (a *Aligner) Scan16(q bio.Sequence, targets []bio.Sequence, sc bio.Scoring) (LaneScores, bool) {
	ls, _, ok := a.scan16(q, targets, sc, nil)
	return ls, ok
}

// scan8 is one int8 lane pass under an optional Bound, also returning
// the padded row width (the longest target). prof, when non-nil, is
// the group's prebuilt int8 profile (bio.NewPackedProfile8 or its
// bit-identical from-words equivalent); nil builds it from targets.
// ok is false when the scoring magnitudes or the target count do not
// fit int8 lanes.
func (a *Aligner) scan8(q bio.Sequence, targets []bio.Sequence, sc bio.Scoring, prof *bio.PackedProfile, ab *Bound) (LaneScores, int, bool) {
	if -sc.Gap > bio.PackedCap8 {
		return LaneScores{}, 0, false
	}
	if prof == nil {
		prof = bio.NewPackedProfile8(targets, sc)
	}
	if prof == nil {
		return LaneScores{}, 0, false
	}
	return a.finish(q, prof, sc, len(targets), ab), prof.Words(), true
}

// scan16 is scan8 for up to 4 targets in int16 lanes.
func (a *Aligner) scan16(q bio.Sequence, targets []bio.Sequence, sc bio.Scoring, ab *Bound) (LaneScores, int, bool) {
	if -sc.Gap > bio.PackedCap16 {
		return LaneScores{}, 0, false
	}
	prof := bio.NewPackedProfile16(targets, sc)
	if prof == nil {
		return LaneScores{}, 0, false
	}
	return a.finish(q, prof, sc, len(targets), ab), prof.Words(), true
}

func (a *Aligner) finish(q bio.Sequence, prof *bio.PackedProfile, sc bio.Scoring, lanes int, ab *Bound) LaneScores {
	best, sat, rows, pruned := a.scanPacked(q, prof, -sc.Gap, ab)
	res := LaneScores{Lanes: lanes, Rows: rows, Pruned: pruned}
	if pruned {
		return res
	}
	guard := uint64(1) << (uint(prof.Shift()) - 1)
	for l := 0; l < lanes; l++ {
		res.Scores[l] = prof.Lane(best, l)
		if prof.Lane(sat, l)&int(guard) != 0 {
			res.Saturated |= 1 << uint(l)
		}
	}
	return res
}

// Rung is a step of the exact scoring ladder, and the step a Ladder
// call starts at.
type Rung int

const (
	// Rung8 is one inter-sequence int8 pass over the whole lane group.
	Rung8 Rung = iota
	// Rung16 is the inter-sequence int16 pass, in subgroups of 4.
	Rung16
	// RungScalar is the exact scalar kernel, one target at a time.
	RungScalar
)

// LadderScores is the outcome of one Ladder call.
type LadderScores struct {
	// Scores holds each target's exact best local-alignment score; a
	// pruned target's slot is 0 and meaningless.
	Scores []int
	// Pruned[i] reports that target i's exact score is provably below
	// the bound's Below threshold.
	Pruned []bool
	// Rows[i] is the number of query rows the rung that resolved target
	// i consumed: the full query length unless pruned.
	Rows []int
	// Padded counts the cells the rungs actually computed: lane width ×
	// padded row width × rows scanned per packed pass, |target| × rows
	// per scalar scan.
	Padded int64
	// Sat8 is the saturation mask of the int8 pass; it is evidence only
	// when Ran8 reports that the pass ran to completion (it was neither
	// refused by the scoring scheme nor abandoned under the bound).
	Sat8 uint8
	Ran8 bool
}

// Ladder returns the exact best local-alignment score of q against
// every target of one lane group, bit-exact against align.Scan: the
// int8 pass, an int16 retry in subgroups of 4 for the lanes that
// overflow the 7-bit clean range (or all of them when the scheme does
// not fit int8 lanes), and the scalar kernel for anything still
// overflowing. start skips the rungs above it. prof8, when non-nil, is
// the group's prebuilt int8 profile for the Rung8 pass. Under a
// non-nil Bound each rung may abandon its targets once their scores
// are provably below ab.Below; a nil Bound scores every target. The
// int8 rung takes at most PackedLanes8 targets — larger groups start
// directly at the int16 rung, still exactly. The Aligner's buffers are
// reused across calls, so a long-lived worker allocates only the
// result slices and the packed profiles per lane group.
func (a *Aligner) Ladder(q bio.Sequence, targets []bio.Sequence, sc bio.Scoring, start Rung, prof8 *bio.PackedProfile, ab *Bound) (LadderScores, error) {
	if err := sc.Validate(); err != nil {
		return LadderScores{}, err
	}
	g := len(targets)
	res := LadderScores{Scores: make([]int, g), Pruned: make([]bool, g), Rows: make([]int, g)}
	for i := range res.Rows {
		res.Rows[i] = len(q)
	}
	if start == RungScalar {
		for i := range targets {
			res.scalar(q, targets, i, sc, ab)
		}
		return res, nil
	}
	var buf [bio.PackedLanes8]int
	narrow := buf[:0] // target indices for the int16 rung
	ls, width, ok := LaneScores{}, 0, false
	if start == Rung8 {
		ls, width, ok = a.scan8(q, targets, sc, prof8, ab)
	}
	if !ok {
		for i := range targets {
			narrow = append(narrow, i)
		}
	} else {
		res.Padded += int64(bio.PackedLanes8) * int64(width) * int64(ls.Rows)
		if ls.Pruned {
			for i := range targets {
				res.Pruned[i], res.Rows[i] = true, ls.Rows
			}
			return res, nil
		}
		res.Sat8, res.Ran8 = ls.Saturated, true
		for l := 0; l < ls.Lanes; l++ {
			if ls.Saturated&(1<<uint(l)) != 0 {
				narrow = append(narrow, l)
			} else {
				res.Scores[l] = ls.Scores[l]
			}
		}
	}
	var gbuf [bio.PackedLanes16]bio.Sequence
	for lo := 0; lo < len(narrow); lo += bio.PackedLanes16 {
		sub := narrow[lo:min(lo+bio.PackedLanes16, len(narrow))]
		group := gbuf[:0]
		for _, i := range sub {
			group = append(group, targets[i])
		}
		ls, width, ok := a.scan16(q, group, sc, ab)
		if !ok {
			for _, i := range sub {
				res.scalar(q, targets, i, sc, ab)
			}
			continue
		}
		res.Padded += int64(bio.PackedLanes16) * int64(width) * int64(ls.Rows)
		for l, i := range sub {
			switch {
			case ls.Pruned:
				res.Pruned[i], res.Rows[i] = true, ls.Rows
			case ls.Saturated&(1<<uint(l)) != 0:
				res.scalar(q, targets, i, sc, ab)
			default:
				res.Scores[i] = ls.Scores[l]
			}
		}
	}
	return res, nil
}

// scalar resolves target i on the ladder's last rung, which always
// succeeds exactly.
func (r *LadderScores) scalar(q bio.Sequence, targets []bio.Sequence, i int, sc bio.Scoring, ab *Bound) {
	r.Scores[i], r.Rows[i], r.Pruned[i] = ScalarScoreBounded(q, targets[i], sc, ab)
	r.Padded += int64(len(targets[i])) * int64(r.Rows[i])
}
