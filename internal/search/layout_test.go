package search

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"genomedsm/internal/bio"
)

func TestLayoutBuildAndValidate(t *testing.T) {
	g := bio.NewGenerator(7)
	q := g.Random(200)
	db := NewDB(testDB(t, 8, q, 20, 5))
	lay := BuildLayout(db)
	if lay.Groups() != (db.Size()+bio.PackedLanes8-1)/bio.PackedLanes8 {
		t.Fatalf("layout holds %d groups for %d records", lay.Groups(), db.Size())
	}
	if err := lay.Validate(db); err != nil {
		t.Fatalf("fresh layout must validate: %v", err)
	}
	if err := db.SetLayout(lay); err != nil {
		t.Fatalf("SetLayout: %v", err)
	}
	if db.Layout() != lay {
		t.Fatalf("Layout() did not return the attached layout")
	}
	// A single flipped code byte must fail validation — this is the
	// forged-lane-section guarantee the pack loader leans on.
	lay.words[len(lay.words)/2] ^= 0x01
	if err := lay.Validate(db); err == nil {
		t.Fatalf("corrupt layout word must fail Validate")
	}
	lay.words[len(lay.words)/2] ^= 0x01
	if err := lay.Validate(db); err != nil {
		t.Fatalf("restored layout must validate again: %v", err)
	}
}

func TestLayoutViewRejects(t *testing.T) {
	words := make([]uint64, 10)
	cases := []struct {
		name string
		offs []int64
	}{
		{"empty", nil},
		{"nonzero start", []int64{1, 10}},
		{"decreasing", []int64{0, 8, 4, 10}},
		{"short cover", []int64{0, 4}},
		{"over cover", []int64{0, 12}},
	}
	for _, tc := range cases {
		if _, err := NewLayoutView(tc.offs, words); err == nil {
			t.Errorf("%s: view must be rejected", tc.name)
		}
	}
	if _, err := NewLayoutView([]int64{0, 4, 10}, words); err != nil {
		t.Fatalf("well-formed view rejected: %v", err)
	}
}

func TestLayoutSlice(t *testing.T) {
	g := bio.NewGenerator(9)
	db := NewDB(testDB(t, 10, g.Random(150), 25, 0))
	lay := BuildLayout(db)
	if lay.Groups() < 3 {
		t.Fatalf("need at least 3 groups, got %d", lay.Groups())
	}
	sub := lay.Slice(1, 3)
	if sub.Groups() != 2 {
		t.Fatalf("slice holds %d groups, want 2", sub.Groups())
	}
	for gi := 0; gi < 2; gi++ {
		want := lay.GroupWords(1 + gi)
		got := sub.GroupWords(gi)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("slice group %d words differ", gi)
		}
		if len(want) > 0 && &want[0] != &got[0] {
			t.Fatalf("slice group %d does not alias the parent words", gi)
		}
	}
}

// TestSearchWithLayoutDifferential is the exactness pin of the layout
// fast path: every mode — plain, pruned, prefiltered, dispatched, solo
// and batch — returns bit-identical hits whether the DB carries a
// precomputed layout or not.
func TestSearchWithLayoutDifferential(t *testing.T) {
	g := bio.NewGenerator(21)
	q1 := g.Random(250)
	q2 := g.Random(120)
	recs := testDB(t, 22, q1, 40, 8)
	plain := NewDB(recs)
	withLay := NewDB(recs)
	withLay.EnsureLayout()
	if withLay.Layout() == nil {
		t.Fatal("EnsureLayout did not attach a layout")
	}

	opts := []Options{
		{Dispatch: "fixed", NoEndpoints: true},
		{Dispatch: "fixed", Workers: 3},
		{Dispatch: "fixed", Prune: true, TopK: 5},
		{Dispatch: "fixed", Prune: true, Prefilter: true, TopK: 3},
		{NoEndpoints: true},
		{Prune: true, TopK: 7},
		{Router: inter16Router(), NoEndpoints: true},
		{Dispatch: "scalar", NoEndpoints: true},
	}
	queries := []BatchQuery{{Seq: q1}, {Seq: q2}, {Seq: q1[:50]}}
	ctx := context.Background()
	for oi, opt := range opts {
		t.Run(fmt.Sprintf("opt%d", oi), func(t *testing.T) {
			want, err := RunBatch(ctx, queries, plain, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunBatch(ctx, queries, withLay, opt)
			if err != nil {
				t.Fatal(err)
			}
			for qi := range want {
				if want[qi].Err != nil || got[qi].Err != nil {
					t.Fatalf("query %d: unexpected error %v / %v", qi, want[qi].Err, got[qi].Err)
				}
				if !reflect.DeepEqual(want[qi].Result.Hits, got[qi].Result.Hits) {
					t.Errorf("query %d: hits differ with layout attached\nwant %+v\ngot  %+v",
						qi, want[qi].Result.Hits, got[qi].Result.Hits)
				}
				adaptive := opt.Router == nil && opt.Dispatch == ""
				if want[qi].Result.PaddedCells != got[qi].Result.PaddedCells && !adaptive && !opt.Prune {
					// Without pruning or adaptive routing the padded-cell
					// accounting is scheduling-independent and must agree.
					t.Errorf("query %d: padded cells %d vs %d",
						qi, want[qi].Result.PaddedCells, got[qi].Result.PaddedCells)
				}
			}
		})
	}
}
