package bio

import (
	"math/rand"
	"reflect"
	"testing"
)

// randSeq draws n residues including occasional 'N' and lowercase
// bytes, exercising the full BaseCode table.
func randSeq(rng *rand.Rand, n int) Sequence {
	const letters = "ACGTacgtNn"
	s := make(Sequence, n)
	for i := range s {
		s[i] = letters[rng.Intn(len(letters))]
	}
	return s
}

func lensOf(targets []Sequence) []int {
	lens := make([]int, len(targets))
	for i, t := range targets {
		lens[i] = len(t)
	}
	return lens
}

// TestPackedProfileFromWords pins the zero-copy exactness claim of the
// pack-v2 lane layout: a profile built from interleaved code words is
// bit-identical — every plus and minus row, every metadata field — to
// the profile built from the target bytes themselves.
func TestPackedProfileFromWords(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	scorings := []Scoring{
		DefaultScoring(),
		{Match: 5, Mismatch: -4, Gap: -8},
		{Match: 1, Mismatch: -1, Gap: -1},
		{Match: 127, Mismatch: -127, Gap: -127},
	}
	var reused PackedProfile
	for trial := 0; trial < 200; trial++ {
		nt := 1 + rng.Intn(PackedLanes8)
		targets := make([]Sequence, nt)
		maxLen := 1 + rng.Intn(40)
		for l := range targets {
			n := rng.Intn(maxLen + 1)
			targets[l] = randSeq(rng, n)
		}
		if trial%7 == 0 {
			// Degenerate group: every lane empty.
			for l := range targets {
				targets[l] = nil
			}
		}
		words := InterleaveWords8(nil, targets)
		sc := scorings[trial%len(scorings)]
		want := NewPackedProfile8(targets, sc)
		got := &PackedProfile{}
		if want == nil || !got.Reset8FromWords(words, lensOf(targets), sc) {
			t.Fatalf("trial %d: profile refused (want nil=%v)", trial, want == nil)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: from-words profile differs from from-targets profile\ntargets=%q sc=%+v", trial, targets, sc)
		}
		// One profile reset across every trial — the per-worker reuse
		// path — must match too, whatever the previous group left in
		// its storage.
		if !reused.Reset8FromWords(words, lensOf(targets), sc) {
			t.Fatalf("trial %d: reset refused a valid group", trial)
		}
		if !reflect.DeepEqual(want, &reused) {
			t.Fatalf("trial %d: reset profile differs from from-targets profile\ntargets=%q sc=%+v", trial, targets, sc)
		}
	}
}

// TestPackedProfileFromWordsRejects pins the refusal conditions: they
// must match NewPackedProfile8's nil conditions exactly, plus the extra
// corrupt-layout guard when the word count disagrees with the claimed
// lane lengths.
func TestPackedProfileFromWordsRejects(t *testing.T) {
	targets := []Sequence{Sequence("ACGT"), Sequence("AC")}
	words := InterleaveWords8(nil, targets)
	lens := lensOf(targets)
	if (&PackedProfile{}).Reset8FromWords(words, lens, Scoring{Match: 200, Mismatch: -1, Gap: -1}) {
		t.Fatalf("match magnitude beyond the int8 cap must be refused")
	}
	if (&PackedProfile{}).Reset8FromWords(words, lens, Scoring{Match: 1, Mismatch: -200, Gap: -1}) {
		t.Fatalf("mismatch magnitude beyond the int8 cap must be refused")
	}
	if (&PackedProfile{}).Reset8FromWords(words, make([]int, 9), DefaultScoring()) {
		t.Fatalf("more than 8 lanes must be refused")
	}
	if (&PackedProfile{}).Reset8FromWords(words[:len(words)-1], lens, DefaultScoring()) {
		t.Fatalf("truncated words must be refused, not give a wrong profile")
	}
	if (&PackedProfile{}).Reset8FromWords(append(words[:len(words):len(words)], 0), lens, DefaultScoring()) {
		t.Fatalf("overlong words must be refused, not give a wrong profile")
	}
}

// TestInterleaveWords8Padding checks the pad byte: every lane past its
// target's end — and every lane with no target — must hold PadCode.
func TestInterleaveWords8Padding(t *testing.T) {
	targets := []Sequence{Sequence("ACG"), Sequence("T")}
	words := InterleaveWords8(nil, targets)
	if len(words) != 3 {
		t.Fatalf("got %d words, want 3", len(words))
	}
	for j, w := range words {
		for l := 0; l < PackedLanes8; l++ {
			got := byte(w >> (uint(l) * 8))
			want := byte(PadCode)
			if l < len(targets) && j < len(targets[l]) {
				want = BaseCode(targets[l][j])
			}
			if got != want {
				t.Fatalf("word %d lane %d: code %d, want %d", j, l, got, want)
			}
		}
	}
}

func FuzzPackedProfileFromWords(f *testing.F) {
	f.Add([]byte("ACGTNACGT"), []byte("TTTT"), int8(2), int8(-3))
	f.Add([]byte(""), []byte("N"), int8(1), int8(-1))
	f.Fuzz(func(t *testing.T, a, b []byte, match, mismatch int8) {
		if match < 0 || mismatch > 0 {
			t.Skip()
		}
		sc := Scoring{Match: int(match), Mismatch: int(mismatch), Gap: -1}
		targets := []Sequence{Sequence(a), Sequence(b)}
		words := InterleaveWords8(nil, targets)
		want := NewPackedProfile8(targets, sc)
		got := &PackedProfile{}
		if ok := got.Reset8FromWords(words, lensOf(targets), sc); (want == nil) == ok {
			t.Fatalf("refusal disagreement: want nil=%v reset ok=%v", want == nil, ok)
		}
		if want != nil && !reflect.DeepEqual(want, got) {
			t.Fatalf("profiles differ for %q %q %+v", a, b, sc)
		}
	})
}
