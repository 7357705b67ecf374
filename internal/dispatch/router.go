package dispatch

import (
	"sync/atomic"

	"genomedsm/internal/bio"
)

// Router turns the calibrated profile into per-workload kernel
// decisions. A Router is immutable after construction (the test hooks
// excepted) and safe for concurrent use; the mutable adaptive state of
// one database scan lives in its ScanState.
type Router struct {
	mode Mode
	prof *Profile

	// counts tallies routing decisions over the router's lifetime.
	// Counters are atomics behind a pointer, so counting does not break
	// the immutability contract: a resident server shares one router
	// across every request and reads the tallies for its /statsz
	// endpoint. Counts observe scheduling, never influence routing.
	counts *routeCounts

	// ForceGroup and ForcePair are test hooks: when non-nil they
	// override the cost model entirely, letting the differential and
	// fuzz suites steer the scan down adversarially wrong routes to
	// prove results are routing-independent, and the benchmarks pin a
	// single route (the forced int16 comparator). Never set outside
	// tests and benchmarks.
	ForceGroup func(qLen int, lens []int) (GroupRoute, bool)
	ForcePair  func(m, n int) (PairRoute, bool)
}

// routeCounts holds per-route decision tallies, indexed by route value.
type routeCounts struct {
	group [GroupScalar + 1]atomic.Int64
	pair  [PairScalar + 1]atomic.Int64
}

// GroupCounts returns the lane-group routing decisions taken so far,
// keyed by route label ("inter8", "inter16", "singles", "scalar").
// Routes never taken are omitted.
func (r *Router) GroupCounts() map[string]int64 {
	out := make(map[string]int64)
	for route := GroupInter8; route <= GroupScalar; route++ {
		if n := r.counts.group[route].Load(); n > 0 {
			out[route.String()] = n
		}
	}
	return out
}

// PairCounts returns the pairwise routing decisions taken so far, keyed
// by route label ("striped8", "striped16", "scalar"). Routes never
// taken are omitted.
func (r *Router) PairCounts() map[string]int64 {
	out := make(map[string]int64)
	for route := PairStriped8; route <= PairScalar; route++ {
		if n := r.counts.pair[route].Load(); n > 0 {
			out[route.String()] = n
		}
	}
	return out
}

// New builds a router in the given mode; a nil profile selects the
// static default table.
func New(mode Mode, prof *Profile) *Router {
	if prof == nil {
		prof = DefaultProfile()
	}
	return &Router{mode: mode, prof: prof, counts: &routeCounts{}}
}

// Mode returns the router's mode.
func (r *Router) Mode() Mode { return r.mode }

// Profile returns the router's calibration table (never nil).
func (r *Router) Profile() *Profile { return r.prof }

// SatPossible8 reports whether an int8 lane scanning a target of length
// tLen against a query of length qLen can saturate at all: the best
// local score is at most min(qLen, tLen)·Match, so below the clean cap
// the narrow rung is provably exact and retry-free. The search layer
// uses it to count only saturation-capable lanes into the observed
// saturation rate.
func SatPossible8(qLen, tLen int, sc bio.Scoring) bool {
	short := min(qLen, tLen)
	return short*sc.Match > bio.PackedCap8
}

// ScanState carries the per-database-scan adaptive routing state: the
// observed int8 saturation rate of this query against this database.
// Saturation depends on how homologous the records are, which no static
// feature predicts, so the scan learns it: every int8 word-pass reports
// how many saturation-capable lanes were flagged, and once the observed
// rate crosses the calibrated break-even point the router starts groups
// at int16 directly instead of paying the doomed int8 pass plus its
// retry. Routing feedback changes only speed — every route stays
// bit-exact — so the scheduling-dependent observation order is safe.
type ScanState struct {
	r *Router
	// tried / flagged count int8 lanes that could have saturated and
	// those that did.
	tried   atomic.Int64
	flagged atomic.Int64
}

// NewScan returns fresh adaptive state for one database scan.
func (r *Router) NewScan() *ScanState { return &ScanState{r: r} }

// Observe8 records the outcome of one int8 word-pass: lanes that could
// have saturated and how many actually did.
func (s *ScanState) Observe8(possible, saturated int) {
	if s == nil || possible <= 0 {
		return
	}
	s.tried.Add(int64(possible))
	s.flagged.Add(int64(saturated))
}

// satRate returns the observed saturation rate, or ok=false before
// enough evidence has accumulated.
func (s *ScanState) satRate() (float64, bool) {
	const warmup = 8 // lanes observed before the estimate is trusted
	tried := s.tried.Load()
	if tried < warmup {
		return 0, false
	}
	return float64(s.flagged.Load()) / float64(tried), true
}

// Group picks the scan route for one lane group: qLen is the query
// length and lens the group's record lengths (1 to 8 records, near
// equal after length-sorted batching except in the leftover tail).
func (s *ScanState) Group(qLen int, lens []int, sc bio.Scoring) GroupRoute {
	route := s.group(qLen, lens, sc)
	s.r.counts.group[route].Add(1)
	return route
}

func (s *ScanState) group(qLen int, lens []int, sc bio.Scoring) GroupRoute {
	r := s.r
	if r.ForceGroup != nil {
		if route, ok := r.ForceGroup(qLen, lens); ok {
			return route
		}
	}
	switch r.mode {
	case ModeScalar:
		return GroupScalar
	case ModeFixed:
		// The pre-dispatch thresholds: singletons ride the striped
		// intra-sequence kernel, everything else the int8 ladder.
		if len(lens) == 1 {
			return GroupSingles
		}
		return GroupInter8
	}

	g := len(lens)
	maxLen, sum := 0, 0
	for _, l := range lens {
		if l > maxLen {
			maxLen = l
		}
		sum += l
	}
	if g == 0 || maxLen == 0 || qLen == 0 {
		return GroupInter8
	}
	q := float64(qLen)

	// Predicted int8 retry rate: zero when no lane can saturate, the
	// observed scan-wide rate once warm, and optimistic before that
	// (random-sequence scores stay far below the cap, so the narrow
	// kernel is the right opening bet).
	rate := 0.0
	anySat := false
	for _, l := range lens {
		if SatPossible8(qLen, l, sc) {
			anySat = true
			break
		}
	}
	if anySat {
		if obs, ok := s.satRate(); ok {
			rate = obs
		}
	}

	inter8 := r.prof.Stats(FamInter8)
	inter16 := r.prof.Stats(FamInter16)
	striped := r.prof.Stats(FamStriped8)
	striped16 := r.prof.Stats(FamStriped16)
	scalar := r.prof.Stats(FamScalar)

	// Inter-sequence int8: one padded word-pass over the whole group,
	// plus the predicted int16 retry of the flagged lanes.
	tInter8 := inter8.seconds(float64(bio.PackedLanes8) * float64(maxLen) * q)
	if rate > 0 {
		tInter8 += rate * inter16.seconds(float64(g)*float64(maxLen)*q)
	}
	// Inter-sequence int16 directly: ⌈g/4⌉ word-passes of 4 lanes.
	words := (g + bio.PackedLanes16 - 1) / bio.PackedLanes16
	tInter16 := float64(words) * inter16.seconds(float64(bio.PackedLanes16)*float64(maxLen)*q)
	// Striped singles: each record pays its own profile build but only
	// its own cells — the win for ragged leftover groups. The build cost
	// grows with the query (the probes measured it at probeLarge), so
	// the per-call overhead is scaled up for longer queries. The striped
	// ladder retries saturated int8 passes at int16 too, so it pays the
	// same predicted retry penalty as the inter-sequence int8 route.
	scale := stripedOverheadScale(qLen)
	tSingles := float64(g)*striped.OverheadNS*scale/1e9 + striped.seconds(float64(sum)*q)
	if rate > 0 {
		tSingles += rate * striped16.seconds(float64(sum)*q)
	}
	// Scalar: no packing at all; wins only for tiny matrices where even
	// the striped profile build dominates.
	tScalar := float64(g)*scalar.seconds(0) + scalar.seconds(float64(sum)*q)

	// The int8 word-pass is the default; an alternative must beat it by
	// a clear margin, so probe noise on near-tied families (striped8 and
	// inter8 measure within a few percent of each other) cannot flip
	// routes run to run.
	const margin = 0.9
	bestAlt, route := tSingles, GroupSingles
	if anySat && tInter16 < bestAlt {
		bestAlt, route = tInter16, GroupInter16
	}
	if tScalar < bestAlt {
		bestAlt, route = tScalar, GroupScalar
	}
	if bestAlt < margin*tInter8 {
		return route
	}
	return GroupInter8
}

// stripedOverheadScale adjusts the striped families' probed per-call
// overhead for the actual query length: the dominant term is the
// striped profile build, which is linear in the query, and the probes
// measured it at probeLarge rows. Queries at or below the probe size
// keep the probed constant (the floor covers the length-independent
// call cost).
func stripedOverheadScale(qLen int) float64 {
	s := float64(qLen) / probeLarge
	if s < 1 {
		return 1
	}
	return s
}

// Pair picks the opening rung of a striped pairwise scan of an m-row
// query against an n-base target. expectScore, when positive, is a
// known lower bound on the final score (the search layer re-aligns hits
// whose score it already knows): a bound above a rung's clean cap
// proves that rung will saturate, so the ladder starts past it in every
// mode — that is a proof, not a tuned threshold.
func (r *Router) Pair(m, n int, sc bio.Scoring, expectScore int) PairRoute {
	route := r.pair(m, n, sc, expectScore)
	r.counts.pair[route].Add(1)
	return route
}

func (r *Router) pair(m, n int, sc bio.Scoring, expectScore int) PairRoute {
	if r.ForcePair != nil {
		if route, ok := r.ForcePair(m, n); ok {
			return route
		}
	}
	start := PairStriped8
	if expectScore > bio.PackedCap8 {
		start = PairStriped16
	}
	if expectScore > bio.PackedCap16 {
		start = PairScalar
	}
	switch r.mode {
	case ModeScalar:
		return PairScalar
	case ModeFixed:
		return start
	}
	if start == PairScalar {
		return start
	}
	// Tiny pairs: the striped profile build dominates the matrix; run
	// the scalar kernel when the calibrated model says it is cheaper.
	cells := float64(m) * float64(n)
	striped := r.prof.Stats(FamStriped8)
	if start == PairStriped16 {
		striped = r.prof.Stats(FamStriped16)
	}
	tStriped := striped.OverheadNS*stripedOverheadScale(m)/1e9 + cells/(striped.MCells*1e6)
	if r.prof.Stats(FamScalar).seconds(cells) < tStriped {
		return PairScalar
	}
	return start
}

// Band reports whether a pre-process band of the given height should
// run the striped band kernel (true) or the scalar column loop (false).
func (r *Router) Band(rows int) bool {
	switch r.mode {
	case ModeScalar:
		return false
	case ModeFixed:
		return true
	}
	if rows < bio.PackedLanes8 {
		// Fewer rows than lanes: the striped layout is mostly padding.
		return false
	}
	return r.prof.Stats(FamBand).MCells > r.prof.Stats(FamScalar).MCells
}
