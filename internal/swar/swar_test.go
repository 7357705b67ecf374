package swar_test

import (
	"math/rand"
	"testing"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/swar"
)

// The tests live in an external package (swar_test) because the
// differential oracles import align, which itself imports swar for the
// striped fast path; guard-bit masks are restated here.
const (
	hi8  = 0x8080808080808080
	hi16 = 0x8000800080008000
)

// ---- SWAR primitive unit tests: packed ops vs per-lane reference loops ----

// TestClampPrimitives pins the guard-bit contracts of the packed ops:
// for penalty lanes y within the clean range, SubClamp* is the exact
// zero-clamped subtract on clean x lanes and always lands back in the
// clean range (containment) for any x — even when neighbouring lanes
// carry dirty guard-bit values — and MaxClamped* is the exact unsigned
// per-lane maximum for every x.
func TestClampPrimitives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := []uint64{0, ^uint64(0), hi8, hi16, 0x00FF00FF00FF00FF,
		0x0101010101010101, ^uint64(hi8), ^uint64(hi16)}
	for i := 0; i < 1000; i++ {
		words := append(base[:len(base):len(base)], rng.Uint64(), rng.Uint64())
		for _, x := range words {
			for _, yr := range words {
				y := yr &^ hi8 // penalty lanes stay ≤ 127 by contract
				sub := swar.SubClamp8(x, y)
				mx := swar.MaxClamped8(x, y)
				for l := 0; l < 8; l++ {
					xl := int(x >> (8 * l) & 0xFF)
					yl := int(y >> (8 * l) & 0xFF)
					sl := int(sub >> (8 * l) & 0xFF)
					ml := int(mx >> (8 * l) & 0xFF)
					if sl > 127 {
						t.Fatalf("SubClamp8(%#x,%#x) lane %d = %d escapes the clean range", x, y, l, sl)
					}
					if xl <= 127 && sl != max(0, xl-yl) {
						t.Fatalf("SubClamp8(%#x,%#x) lane %d = %d, want %d", x, y, l, sl, max(0, xl-yl))
					}
					if ml != max(xl, yl) {
						t.Fatalf("MaxClamped8(%#x,%#x) lane %d = %d, want %d", x, y, l, ml, max(xl, yl))
					}
				}
				y = yr &^ hi16
				sub = swar.SubClamp16(x, y)
				mx = swar.MaxClamped16(x, y)
				for l := 0; l < 4; l++ {
					xl := int(x >> (16 * l) & 0xFFFF)
					yl := int(y >> (16 * l) & 0xFFFF)
					sl := int(sub >> (16 * l) & 0xFFFF)
					ml := int(mx >> (16 * l) & 0xFFFF)
					if sl > 32767 {
						t.Fatalf("SubClamp16(%#x,%#x) lane %d = %d escapes the clean range", x, y, l, sl)
					}
					if xl <= 32767 && sl != max(0, xl-yl) {
						t.Fatalf("SubClamp16(%#x,%#x) lane %d = %d, want %d", x, y, l, sl, max(0, xl-yl))
					}
					if ml != max(xl, yl) {
						t.Fatalf("MaxClamped16(%#x,%#x) lane %d = %d, want %d", x, y, l, ml, max(xl, yl))
					}
				}
			}
		}
	}
}

// ---- Differential tests: packed lane scores vs the scalar align.Scan ----

// scalarScores is the reference: one forced-scalar align.Scan per
// target (ForceScalar keeps the oracle independent of the striped fast
// path under test).
func scalarScores(t *testing.T, q bio.Sequence, targets []bio.Sequence, sc bio.Scoring) []int {
	t.Helper()
	out := make([]int, len(targets))
	for i, tgt := range targets {
		r, err := align.Scan(q, tgt, sc, align.ScanOptions{ForceScalar: true})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r.BestScore
	}
	return out
}

// ladderScores runs the full fallback ladder over targets cut into
// lane groups of 8 and returns the exact scores.
func ladderScores(al *swar.Aligner, q bio.Sequence, targets []bio.Sequence, sc bio.Scoring) ([]int, error) {
	out := make([]int, 0, len(targets))
	for lo := 0; lo < len(targets); lo += bio.PackedLanes8 {
		res, err := al.Ladder(q, targets[lo:min(lo+bio.PackedLanes8, len(targets))], sc, swar.Rung8, nil, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, res.Scores...)
	}
	return out, nil
}

// checkScores runs the full fallback chain and compares against scalar.
func checkScores(t *testing.T, name string, q bio.Sequence, targets []bio.Sequence, sc bio.Scoring) {
	t.Helper()
	var al swar.Aligner
	got, err := ladderScores(&al, q, targets, sc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := scalarScores(t, q, targets, sc)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: target %d (|t|=%d): packed score %d, scalar %d",
				name, i, len(targets[i]), got[i], want[i])
		}
	}
}

func TestScoresRandom(t *testing.T) {
	g := bio.NewGenerator(1)
	sc := bio.DefaultScoring()
	for _, n := range []int{1, 2, 7, 64, 300} {
		q := g.Random(n)
		var targets []bio.Sequence
		for i := 0; i < 19; i++ { // deliberately not a multiple of 8
			targets = append(targets, g.Random(1+i*17%257))
		}
		checkScores(t, "random", q, targets, sc)
	}
}

func TestScoresHomologous(t *testing.T) {
	g := bio.NewGenerator(2)
	sc := bio.DefaultScoring()
	q := g.Random(100)
	var targets []bio.Sequence
	for i := 0; i < 12; i++ {
		targets = append(targets, g.MutatedCopy(q, bio.DefaultMutationModel()))
	}
	// Homologous targets of a 100-base query score well above the random
	// noise floor but below the int8 clean cap, so every lane must stay in
	// the packed path; assert at least one real hit to keep the test honest.
	scores := scalarScores(t, q, targets, sc)
	maxScore := 0
	for _, s := range scores {
		maxScore = max(maxScore, s)
	}
	if maxScore < 30 || maxScore >= bio.PackedCap8 {
		t.Fatalf("homologous scores not in the int8 sweet spot: max %d", maxScore)
	}
	checkScores(t, "homologous", q, targets, sc)
}

func TestScoresWithN(t *testing.T) {
	sc := bio.DefaultScoring()
	q := bio.MustSequence("ACGTNNNNACGTACGTNACGT")
	targets := []bio.Sequence{
		bio.MustSequence("ACGTNNNNACGTACGTNACGT"), // N aligns N: still mismatch
		bio.MustSequence("NNNNNNNN"),
		bio.MustSequence("ACGT"),
		bio.MustSequence("TTTT"),
	}
	checkScores(t, "with-N", q, targets, sc)
	// The all-N target must score 0: 'N' never matches, even itself.
	var al swar.Aligner
	got, err := ladderScores(&al, q, targets, sc)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 0 {
		t.Errorf("all-N target scored %d, want 0 (N must never match)", got[1])
	}
}

func TestScoresEmpty(t *testing.T) {
	sc := bio.DefaultScoring()
	g := bio.NewGenerator(3)
	checkScores(t, "empty-query", bio.Sequence{}, []bio.Sequence{g.Random(50), {}}, sc)
	checkScores(t, "empty-targets", g.Random(50), []bio.Sequence{{}, {}, {}}, sc)
	var al swar.Aligner
	res, err := al.Ladder(g.Random(10), nil, sc, swar.Rung8, nil, nil)
	if got := res.Scores; err != nil || len(got) != 0 {
		t.Errorf("no targets: got %v, %v", got, err)
	}
}

// TestScoresSaturation forces the int8→int16 fallback: near-identical
// 600-base sequences score ≈600, far above the int8 clean cap of 127.
func TestScoresSaturation(t *testing.T) {
	g := bio.NewGenerator(4)
	sc := bio.DefaultScoring()
	q := g.Random(600)
	targets := []bio.Sequence{
		q.Clone(),       // identity: score 600 ≫ 127
		g.Random(600),   // noise: stays in int8
		q[:300].Clone(), // score 300: saturates int8, fits int16
		q[:100].Clone(), // score 100: stays in int8
	}
	var al swar.Aligner
	ls, ok := al.Scan8(q, targets, sc)
	if !ok {
		t.Fatal("Scan8 rejected default scoring")
	}
	if ls.Saturated&1 == 0 || ls.Saturated&(1<<2) == 0 {
		t.Errorf("identity lanes not flagged saturated: mask %08b scores %v", ls.Saturated, ls.Scores[:4])
	}
	if ls.Saturated&(1<<3) != 0 {
		t.Errorf("score-100 lane wrongly saturated: mask %08b", ls.Saturated)
	}
	checkScores(t, "saturation", q, targets, sc)
}

// TestScoresLadderSaturationEvidence pins the ladder's int8 evidence on
// a group with exactly one saturating lane: the completed int8 pass
// flags that lane alone, and the padded cells are the full 8-lane int8
// pass plus one 4-lane int16 retry at the saturated lane's width.
func TestScoresLadderSaturationEvidence(t *testing.T) {
	g := bio.NewGenerator(41)
	sc := bio.DefaultScoring()
	q := g.Random(300)
	targets := []bio.Sequence{g.Random(250), q.Clone(), g.Random(200), g.Random(100)}
	var al swar.Aligner
	res, err := al.Ladder(q, targets, sc, swar.Rung8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ran8 || res.Sat8 != 0b0010 {
		t.Fatalf("int8 evidence: ran %v mask %04b, want ran with mask 0010", res.Ran8, res.Sat8)
	}
	if want := int64(8*300*300 + 4*300*300); res.Padded != want {
		t.Errorf("padded cells %d, want %d", res.Padded, want)
	}
	want := scalarScores(t, q, targets, sc)
	for i := range want {
		if res.Scores[i] != want[i] || res.Pruned[i] || res.Rows[i] != len(q) {
			t.Errorf("target %d: score %d pruned %v rows %d, want %d unpruned over %d rows",
				i, res.Scores[i], res.Pruned[i], res.Rows[i], want[i], len(q))
		}
	}
	// Starting past the int8 rung produces no int8 evidence.
	if res, err = al.Ladder(q, targets, sc, swar.Rung16, nil, nil); err != nil || res.Ran8 {
		t.Fatalf("int16 start: ran8 %v, err %v", res.Ran8, err)
	}
}

// TestScoresScalarFallback forces the full chain down to align.Scan: a
// match reward of 1000 overflows even the int16 clean cap on a 100-base
// identity, and its magnitude does not fit an int8 lane at all.
func TestScoresScalarFallback(t *testing.T) {
	g := bio.NewGenerator(5)
	sc := bio.Scoring{Match: 1000, Mismatch: -1000, Gap: -2000}
	q := g.Random(100)
	targets := []bio.Sequence{q.Clone(), g.Random(100)}
	var al swar.Aligner
	if _, ok := al.Scan8(q, targets, sc); ok {
		t.Fatal("Scan8 accepted a scoring scheme that cannot fit int8 lanes")
	}
	ls, ok := al.Scan16(q, targets[:1], sc)
	if !ok {
		t.Fatal("Scan16 rejected a scheme that fits int16 lanes")
	}
	if ls.Saturated&1 == 0 {
		t.Errorf("100×1000 identity should saturate int16: scores %v", ls.Scores[:1])
	}
	checkScores(t, "scalar-fallback", q, targets, sc)
}

// TestScan16Direct exercises the int16 kernel on scores that fit it.
func TestScan16Direct(t *testing.T) {
	g := bio.NewGenerator(6)
	sc := bio.DefaultScoring()
	q := g.Random(500)
	targets := []bio.Sequence{q.Clone(), g.MutatedCopy(q, bio.DefaultMutationModel()), g.Random(200)}
	var al swar.Aligner
	ls, ok := al.Scan16(q, targets, sc)
	if !ok {
		t.Fatal("Scan16 rejected default scoring")
	}
	if ls.Saturated != 0 {
		t.Fatalf("unexpected int16 saturation: %08b", ls.Saturated)
	}
	want := scalarScores(t, q, targets, sc)
	for i := range want {
		if ls.Scores[i] != want[i] {
			t.Errorf("int16 lane %d: %d, want %d", i, ls.Scores[i], want[i])
		}
	}
}

// TestAlignerReuse checks that the reused row buffers carry no state
// between scans of different shapes.
func TestAlignerReuse(t *testing.T) {
	g := bio.NewGenerator(8)
	sc := bio.DefaultScoring()
	var al swar.Aligner
	for i := 0; i < 10; i++ {
		q := g.Random(10 + i*37)
		targets := []bio.Sequence{g.Random(200 - i*13), g.Random(5 + i), g.MutatedCopy(q, bio.DefaultMutationModel())}
		got, err := ladderScores(&al, q, targets, sc)
		if err != nil {
			t.Fatal(err)
		}
		want := scalarScores(t, q, targets, sc)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("iteration %d target %d: %d want %d", i, j, got[j], want[j])
			}
		}
	}
}

// TestPackedProfile checks the packed rows against the scalar profile
// semantics lane by lane.
func TestPackedProfile(t *testing.T) {
	sc := bio.DefaultScoring()
	targets := []bio.Sequence{
		bio.MustSequence("ACGTN"),
		bio.MustSequence("AAA"),
		{},
		bio.MustSequence("NNNNNNN"),
	}
	p := bio.NewPackedProfile8(targets, sc)
	if p == nil {
		t.Fatal("profile rejected default scoring")
	}
	if p.Words() != 7 || p.Lanes() != 8 || p.Cap() != bio.PackedCap8 {
		t.Fatalf("geometry: words=%d lanes=%d cap=%d", p.Words(), p.Lanes(), p.Cap())
	}
	for _, a := range []byte{'A', 'C', 'G', 'T', 'N'} {
		plus, minus := p.PlusRow(a), p.MinusRow(a)
		for j := 0; j < p.Words(); j++ {
			for l, tgt := range targets {
				wantPlus, wantMinus := 0, -sc.Mismatch
				if j < len(tgt) && bio.Matches(a, tgt[j]) {
					wantPlus, wantMinus = sc.Match, 0
				}
				if got := p.Lane(plus[j], l); got != wantPlus {
					t.Errorf("plus[%q][%d] lane %d = %d, want %d", a, j, l, got, wantPlus)
				}
				if got := p.Lane(minus[j], l); got != wantMinus {
					t.Errorf("minus[%q][%d] lane %d = %d, want %d", a, j, l, got, wantMinus)
				}
			}
		}
	}
	if bio.NewPackedProfile8(make([]bio.Sequence, 9), sc) != nil {
		t.Error("9 targets accepted by the 8-lane profile")
	}
	if bio.NewPackedProfile8(targets, bio.Scoring{Match: 300, Mismatch: -1, Gap: -2}) != nil {
		t.Error("match magnitude 300 accepted by the int8 profile")
	}
	// 200 fits a raw byte but not the clean 7-bit range behind the guard bit.
	if bio.NewPackedProfile8(targets, bio.Scoring{Match: 200, Mismatch: -1, Gap: -2}) != nil {
		t.Error("match magnitude 200 accepted by the guard-bit int8 profile")
	}
	if bio.NewPackedProfile16(targets[:3], bio.Scoring{Match: 300, Mismatch: -299, Gap: -600}) == nil {
		t.Error("match magnitude 300 rejected by the int16 profile")
	}
}

// TestScoresManyLengths sweeps very uneven lane lengths (padding paths).
func TestScoresManyLengths(t *testing.T) {
	g := bio.NewGenerator(9)
	sc := bio.DefaultScoring()
	q := g.Random(150)
	var targets []bio.Sequence
	for _, n := range []int{0, 1, 2, 3, 150, 149, 151, 40, 7, 1000, 999, 5, 0, 64, 31, 16, 8} {
		targets = append(targets, g.Random(n))
	}
	checkScores(t, "many-lengths", q, targets, sc)
}
