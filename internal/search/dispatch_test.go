package search

import (
	"fmt"
	"testing"

	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
)

// forceRouter builds a router whose test hooks pin every lane group to
// groupRoute and every pairwise realign to pairRoute, regardless of
// workload — the adversarial mis-route the dispatch layer must survive
// bit-exactly.
func forceRouter(groupRoute dispatch.GroupRoute, pairRoute dispatch.PairRoute) *dispatch.Router {
	r := dispatch.New(dispatch.ModeAuto, nil)
	r.ForceGroup = func(qLen int, lens []int) (dispatch.GroupRoute, bool) { return groupRoute, true }
	r.ForcePair = func(m, n int) (dispatch.PairRoute, bool) { return pairRoute, true }
	return r
}

// installForced routes this test's realign align.Scan calls (the
// process-wide active router, which has no options path) down r's
// forced pair route, restoring the default on cleanup, and returns r
// for the scan's Options.Router. Tests in this package do not run in
// parallel, so mutating the global is safe.
func installForced(t *testing.T, r *dispatch.Router) *dispatch.Router {
	t.Helper()
	dispatch.SetActive(r)
	t.Cleanup(func() { dispatch.SetActive(nil) })
	return r
}

var allGroupRoutes = []dispatch.GroupRoute{
	dispatch.GroupInter8, dispatch.GroupInter16, dispatch.GroupSingles, dispatch.GroupScalar,
}

var allPairRoutes = []dispatch.PairRoute{
	dispatch.PairStriped8, dispatch.PairStriped16, dispatch.PairScalar,
}

// TestDispatchForcedRoutesBitExact is the deterministic mis-route
// differential: every GroupRoute × PairRoute combination — including
// provably wrong ones like forcing an int8 word-pass on an int16-only
// scoring — must return the scalar reference's hits bit-for-bit
// (records, scores, coordinates, tie-break order).
func TestDispatchForcedRoutesBitExact(t *testing.T) {
	g := bio.NewGenerator(71)
	q := g.Random(240)
	db := testDB(t, 72, q, 24, 8)
	scorings := []bio.Scoring{
		bio.DefaultScoring(),
		{Match: 25, Mismatch: -2, Gap: -3},         // saturates int8
		{Match: 7000, Mismatch: -7000, Gap: -9000}, // int16-only
	}
	for si, sc := range scorings {
		// Reference: the scalar align.Scan oracle, no router involved.
		want := scalarRef(t, q, db, Options{Scoring: sc, TopK: 8})
		for _, gr := range allGroupRoutes {
			for _, pr := range allPairRoutes {
				name := fmt.Sprintf("scoring%d/%v/%v", si, gr, pr)
				r := installForced(t, forceRouter(gr, pr))
				got, err := Run(q, db, Options{Scoring: sc, TopK: 8, Router: r})
				dispatch.SetActive(nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(got.Hits) != len(want.Hits) {
					t.Fatalf("%s: %d hits, want %d\ngot:  %+v\nwant: %+v",
						name, len(got.Hits), len(want.Hits), got.Hits, want.Hits)
				}
				for i := range want.Hits {
					if got.Hits[i] != want.Hits[i] {
						t.Fatalf("%s: hit %d = %+v, want %+v", name, i, got.Hits[i], want.Hits[i])
					}
				}
				if got.Cells != want.Cells {
					t.Fatalf("%s: cells %d, want %d", name, got.Cells, want.Cells)
				}
				if got.PaddedCells < got.Cells {
					t.Fatalf("%s: padded %d < cells %d", name, got.PaddedCells, got.Cells)
				}
			}
		}
	}
}

// TestDispatchOptionModes checks the user-facing Options.Dispatch knob:
// every mode returns the same hits, and an unknown mode is an error.
func TestDispatchOptionModes(t *testing.T) {
	g := bio.NewGenerator(81)
	q := g.Random(300)
	db := testDB(t, 82, q, 20, 6)
	want := scalarRef(t, q, db, Options{TopK: 6})
	for _, mode := range []string{"", "auto", "fixed", "scalar"} {
		got, err := Run(q, db, Options{TopK: 6, Dispatch: mode})
		if err != nil {
			t.Fatalf("dispatch=%q: %v", mode, err)
		}
		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("dispatch=%q: %d hits, want %d", mode, len(got.Hits), len(want.Hits))
		}
		for i := range want.Hits {
			if got.Hits[i] != want.Hits[i] {
				t.Fatalf("dispatch=%q hit %d: %+v, want %+v", mode, i, got.Hits[i], want.Hits[i])
			}
		}
	}
	if _, err := Run(q, db, Options{TopK: 6, Dispatch: "warp"}); err == nil {
		t.Fatal("unknown dispatch mode accepted")
	}
	// An explicit router bypasses the mode; Dispatch is ignored, not an
	// error, even when invalid.
	if _, err := Run(q, db, Options{TopK: 6, Router: inter16Router(), Dispatch: "warp"}); err != nil {
		t.Fatalf("explicit router should ignore dispatch: %v", err)
	}
}

// TestDispatchPrunedForcedRoutes drives the pruning pipeline down each
// forced group route: the exact top-K contract must hold on every rung
// (pruned partial scans flow through the same bound logic regardless of
// the kernel that produced them).
func TestDispatchPrunedForcedRoutes(t *testing.T) {
	g := bio.NewGenerator(91)
	q := g.Random(200)
	db := testDB(t, 92, q, 30, 10)
	sc := bio.Scoring{Match: 25, Mismatch: -2, Gap: -3}
	want := scalarRef(t, q, db, Options{Scoring: sc, TopK: 5, NoEndpoints: true})
	for _, gr := range allGroupRoutes {
		r := installForced(t, forceRouter(gr, dispatch.PairScalar))
		got, err := Run(q, db, Options{Scoring: sc, TopK: 5, Prune: true, NoEndpoints: true, Router: r})
		dispatch.SetActive(nil)
		if err != nil {
			t.Fatalf("%v: %v", gr, err)
		}
		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("%v: %d hits, want %d", gr, len(got.Hits), len(want.Hits))
		}
		for i := range want.Hits {
			if got.Hits[i] != want.Hits[i] {
				t.Fatalf("%v: hit %d = %+v, want %+v", gr, i, got.Hits[i], want.Hits[i])
			}
		}
		if st := got.Prune; st == nil {
			t.Fatalf("%v: pruned run returned no stats", gr)
		} else if n := st.Skipped + st.Abandoned + st.Scanned; n != got.Searched {
			t.Fatalf("%v: stats cover %d of %d records", gr, n, got.Searched)
		}
	}
}

// FuzzDispatchVsScalar fuzzes the routing layer the same way
// FuzzPrunedSearchVsFull fuzzes pruning: fuzzer-chosen databases,
// queries and scorings run down a fuzzer-forced (usually wrong) route
// and must match the scalar reference bit-exactly.
func FuzzDispatchVsScalar(f *testing.F) {
	f.Add([]byte("acgtacgtacgtacgtacgt"), []byte("tacgtacgtttacgacgtacgtacgacgt"), uint8(0), uint8(0), uint8(0))
	f.Add([]byte("aaaaaaaaaaaaaaaa"), []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), uint8(1), uint8(1), uint8(5))
	f.Add([]byte{}, []byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(2), uint8(7), uint8(2))
	f.Add([]byte("nnnnnnnnnn"), []byte("acgtnacgtnacgtn"), uint8(1), uint8(11), uint8(9))
	f.Fuzz(func(t *testing.T, rawQ, rawDB []byte, scheme, routeByte, mode uint8) {
		q := make(bio.Sequence, 0, len(rawQ))
		for _, b := range rawQ {
			q = append(q, "ACGTN"[int(b)%5])
		}
		if len(q) > 96 {
			q = q[:96]
		}
		var db []bio.Record
		pool := make(bio.Sequence, 0, len(rawDB))
		for _, b := range rawDB {
			pool = append(pool, "ACGTN"[int(b)%5])
		}
		if len(pool) > 512 {
			pool = pool[:512]
		}
		for lo, n := 0, 1; lo < len(pool); lo, n = lo+n, (n*7)%23+1 {
			hi := min(lo+n, len(pool))
			db = append(db, bio.Record{ID: fmt.Sprintf("r%d", len(db)), Seq: pool[lo:hi]})
			if len(db)%5 == 2 && len(q) > 0 {
				db = append(db, bio.Record{ID: fmt.Sprintf("copy%d", len(db)), Seq: q})
			}
		}
		scorings := []bio.Scoring{
			bio.DefaultScoring(),
			{Match: 25, Mismatch: -2, Gap: -3},         // saturates int8 fast
			{Match: 7000, Mismatch: -7000, Gap: -9000}, // int16-only, saturates it too
		}
		sc := scorings[int(scheme)%len(scorings)]
		opt := Options{Scoring: sc, TopK: int(mode)%7 + 1}
		switch mode % 3 {
		case 1:
			opt.Prune = true
		case 2:
			opt.MinScore = sc.Match * 2
		}

		want := scalarRef(t, q, db, opt)

		gr := allGroupRoutes[int(routeByte)%len(allGroupRoutes)]
		pr := allPairRoutes[int(routeByte/4)%len(allPairRoutes)]
		opt.Router = forceRouter(gr, pr)
		dispatch.SetActive(opt.Router)
		got, err := Run(q, db, opt)
		dispatch.SetActive(nil)
		if err != nil {
			t.Fatal(err)
		}

		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("route %v/%v: %d hits, scalar %d\nrouted: %+v\nscalar: %+v",
				gr, pr, len(got.Hits), len(want.Hits), got.Hits, want.Hits)
		}
		for i := range want.Hits {
			if got.Hits[i] != want.Hits[i] {
				t.Fatalf("route %v/%v hit %d: routed %+v, scalar %+v", gr, pr, i, got.Hits[i], want.Hits[i])
			}
		}
		// Pruning shrinks the padded cells by the skipped and abandoned
		// work, so the computed plus the provably saved cells cover the
		// matrix.
		saved := int64(0)
		if got.Prune != nil {
			saved = got.Prune.CellsSaved
		}
		if got.PaddedCells+saved < got.Cells {
			t.Fatalf("route %v/%v: padded %d + saved %d < cells %d", gr, pr, got.PaddedCells, saved, got.Cells)
		}
	})
}

// TestAutoRouteCountsPinned pins the lane-group routing decisions of
// one single-worker auto scan over a mixed database: noise records, a
// block of saturating homologs and a ragged short tail. The router uses
// the static default profile, so the counts depend only on the cost
// model and the saturation feedback the scorer reports — a refactor of
// the scoring path that changes any routing decision (or the feedback
// counts behind it) changes these numbers.
func TestAutoRouteCountsPinned(t *testing.T) {
	g := bio.NewGenerator(111)
	q := g.Random(400)
	var db []bio.Record
	for i := 0; i < 40; i++ {
		db = append(db, bio.Record{ID: fmt.Sprintf("noise%d", i), Seq: g.Random(150 + i*37%350)})
	}
	for i := 0; i < 24; i++ {
		db = append(db, bio.Record{ID: fmt.Sprintf("sat%d", i), Seq: g.MutatedCopy(q, bio.DefaultMutationModel())})
	}
	for i := 0; i < 5; i++ {
		db = append(db, bio.Record{ID: fmt.Sprintf("tiny%d", i), Seq: g.Random(3 + i*4)})
	}
	for _, tc := range []struct {
		prune bool
		want  string
	}{
		{false, "map[inter16:3 inter8:5 singles:1]"},
		{true, "map[inter16:2 inter8:3 singles:1]"},
	} {
		r := dispatch.New(dispatch.ModeAuto, nil)
		if _, err := Run(q, db, Options{Workers: 1, Router: r, Prune: tc.prune, NoEndpoints: true}); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(r.GroupCounts()); got != tc.want {
			t.Errorf("prune=%v: group routes %s, want %s", tc.prune, got, tc.want)
		}
	}
}
