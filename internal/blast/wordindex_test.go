package blast_test

import (
	"reflect"
	"strings"
	"testing"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/blast"
)

func TestNewWordIndexRejects(t *testing.T) {
	g := bio.NewGenerator(5)
	q := g.Random(100)
	for _, w := range []int{0, 3, 16, 101} {
		if ix := blast.NewWordIndex(q, w); ix != nil {
			t.Errorf("word size %d accepted", w)
		}
	}
	if ix := blast.NewWordIndex(q[:5], 11); ix != nil {
		t.Error("query shorter than a word accepted")
	}
	var nilIx *blast.WordIndex
	if s := nilIx.SeedScore(q, bio.DefaultScoring(), 0); s != 0 {
		t.Errorf("nil index seed score %d", s)
	}
}

// TestSeedScoreIsLowerBound is the exactness contract the search
// prefilter relies on: SeedScore never exceeds the true Smith–Waterman
// score, for related and unrelated pairs alike.
func TestSeedScoreIsLowerBound(t *testing.T) {
	g := bio.NewGenerator(15)
	sc := bio.DefaultScoring()
	q := g.Random(300)
	ix := blast.NewWordIndex(q, 11)
	if ix == nil {
		t.Fatal("index not built")
	}
	targets := []bio.Sequence{
		g.MutatedCopy(q, bio.DefaultMutationModel()),
		g.MutatedCopy(q[50:200], bio.DefaultMutationModel()),
		g.Random(400),
		g.Random(10),
		q.Clone(),
	}
	for i, tgt := range targets {
		lb := ix.SeedScore(tgt, sc, 0)
		r, err := align.Scan(q, tgt, sc, align.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if lb > r.BestScore {
			t.Errorf("target %d: seed lower bound %d exceeds exact score %d", i, lb, r.BestScore)
		}
	}
	// The identity copy shares every word: the ungapped extension must
	// recover the full identity score.
	if lb := ix.SeedScore(q, sc, 0); lb != len(q)*sc.Match {
		t.Errorf("identity seed score %d, want %d", lb, len(q)*sc.Match)
	}
}

// TestDBWordIndexLayout pins the flat index arrays against a naive
// word → postings map: words strictly ascending, offs[i]..offs[i+1]
// holding exactly that word's postings in (record, position) order, and
// a restore of the exported arrays scoring identically to the build.
func TestDBWordIndexLayout(t *testing.T) {
	g := bio.NewGenerator(23)
	recs := make([]bio.Record, 40)
	for i := range recs {
		s := g.Random(20 + 37*i%300)
		if i%5 == 0 && len(s) > 10 {
			s[len(s)/2] = 'N' // words never span an unknown base
		}
		recs[i] = bio.Record{Seq: s}
	}
	for _, w := range []int{4, 9, 11} {
		naive := map[uint32][]blast.DBPosting{}
		for r, rec := range recs {
			for p := 0; p+w <= len(rec.Seq); p++ {
				var word uint32
				ok := true
				for _, b := range rec.Seq[p : p+w] {
					code := strings.IndexByte("ACGT", b)
					if code < 0 {
						ok = false
						break
					}
					word = word<<2 | uint32(code)
				}
				if ok {
					naive[word] = append(naive[word], blast.DBPosting{Rec: int32(r), Pos: int32(p)})
				}
			}
		}
		ix := blast.NewDBWordIndex(recs, w)
		words, offs, flat := ix.Export()
		if len(words) != len(naive) || len(offs) != len(words)+1 || int(offs[len(words)]) != len(flat) {
			t.Fatalf("w=%d: %d words, %d offsets, %d postings for %d distinct words", w, len(words), len(offs), len(flat), len(naive))
		}
		for i, word := range words {
			if i > 0 && word <= words[i-1] {
				t.Fatalf("w=%d: words not ascending at %d", w, i)
			}
			if got := flat[offs[i]:offs[i+1]]; !reflect.DeepEqual(got, naive[word]) {
				t.Fatalf("w=%d word %#x: postings %v, want %v", w, word, got, naive[word])
			}
		}
		back, err := blast.RestoreDBWordIndex(recs, w, words, offs, flat)
		if err != nil {
			t.Fatalf("w=%d: restore of an exported index: %v", w, err)
		}
		q := recs[7].Seq
		if a, b := ix.SeedScores(q, bio.DefaultScoring(), 0), back.SeedScores(q, bio.DefaultScoring(), 0); !reflect.DeepEqual(a, b) {
			t.Errorf("w=%d: restored seed scores %v, built %v", w, b, a)
		}
	}
}
