package swar_test

import (
	"testing"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/swar"
)

// fuzzSeq maps arbitrary bytes to the DNA alphabet including 'N', so the
// fuzzer exercises the wildcard rule alongside the four bases.
func fuzzSeq(raw []byte, limit int) bio.Sequence {
	if len(raw) > limit {
		raw = raw[:limit]
	}
	s := make(bio.Sequence, len(raw))
	for i, b := range raw {
		s[i] = "ACGTN"[int(b)%5]
	}
	return s
}

// FuzzScoresVsScalar drives the full int8→int16→scalar ladder against
// the scalar align.Scan on arbitrary query/target bytes, splitting the
// target material into lanes of fuzzer-chosen uneven lengths. cut1/cut2
// and the repeat count shape the lane group so the fuzzer can construct
// empty lanes, duplicate lanes and high-identity (saturating) lanes;
// the repeat byte's high part also picks the ladder's start rung.
func FuzzScoresVsScalar(f *testing.F) {
	f.Add([]byte("acgtacgtacgt"), []byte("tacgtacg"), uint8(3), uint8(5), uint8(2))
	f.Add([]byte{}, []byte{1, 2, 3, 4}, uint8(0), uint8(0), uint8(9))
	f.Add([]byte("aaaaaaaaaaaaaaaa"), []byte("aaaaaaaaaaaaaaaa"), uint8(8), uint8(16), uint8(6))
	f.Fuzz(func(t *testing.T, rawQ, rawT []byte, cut1, cut2, rep uint8) {
		q := fuzzSeq(rawQ, 128)
		pool := fuzzSeq(rawT, 160)
		a, b := int(cut1)%(len(pool)+1), int(cut2)%(len(pool)+1)
		if a > b {
			a, b = b, a
		}
		targets := []bio.Sequence{pool[:a], pool[a:b], pool[b:]}
		// Repeating the query as a lane forces identity scores — on long
		// inputs these saturate int8 and exercise the fallback.
		for i := 0; i < int(rep)%6; i++ {
			targets = append(targets, q)
		}
		var al swar.Aligner
		start := swar.Rung(int(rep/6) % 3)
		res, err := al.Ladder(q, targets, bio.DefaultScoring(), start, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Scores
		for i, tgt := range targets {
			r, err := align.Scan(q, tgt, bio.DefaultScoring(), align.ScanOptions{ForceScalar: true})
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != r.BestScore {
				t.Fatalf("lane %d (|q|=%d |t|=%d): packed %d, scalar %d",
					i, len(q), len(tgt), got[i], r.BestScore)
			}
		}
	})
}

// FuzzStripedVsScalar drives the striped intra-sequence ladder against
// the forced-scalar align.Scan on arbitrary sequence pairs and three
// scoring schemes, checking score AND end-coordinate bit-exactness.
// The high-reward scheme saturates int8 within 6 matches and int16
// within ~5, exercising every rung of the fallback ladder.
func FuzzStripedVsScalar(f *testing.F) {
	f.Add([]byte("acgtacgtacgt"), []byte("tacgtacg"), uint8(0))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), uint8(1))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4}, uint8(2))
	f.Fuzz(func(t *testing.T, rawS, rawT []byte, scheme uint8) {
		s := fuzzSeq(rawS, 128)
		tt := fuzzSeq(rawT, 128)
		scorings := []bio.Scoring{
			bio.DefaultScoring(),
			{Match: 25, Mismatch: -2, Gap: -3},         // saturates int8 in 6 matches
			{Match: 7000, Mismatch: -7000, Gap: -9000}, // no int8 layout, saturates int16 in 5
		}
		sc := scorings[int(scheme)%len(scorings)]
		r, err := align.Scan(s, tt, sc, align.ScanOptions{ForceScalar: true})
		if err != nil {
			t.Fatal(err)
		}
		want := swar.Pair{Score: r.BestScore, I: r.BestI, J: r.BestJ}
		var al swar.Aligner
		if got, ok := al.StripedScan8(s, tt, sc); ok && got != want {
			t.Fatalf("StripedScan8 (|s|=%d |t|=%d %+v): %+v, want %+v", len(s), len(tt), sc, got, want)
		}
		if got, ok := al.StripedScan16(s, tt, sc); ok && got != want {
			t.Fatalf("StripedScan16 (|s|=%d |t|=%d %+v): %+v, want %+v", len(s), len(tt), sc, got, want)
		}
		if got := al.StripedScore(s, tt, sc); got != want {
			t.Fatalf("StripedScore (|s|=%d |t|=%d %+v): %+v, want %+v", len(s), len(tt), sc, got, want)
		}
	})
}
