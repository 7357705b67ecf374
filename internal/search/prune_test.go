package search

import (
	"fmt"
	"strings"
	"testing"

	"genomedsm/internal/bio"
)

// requireSameHits asserts two hit slices are bit-identical: same
// records, scores, coordinates and tie-break order.
func requireSameHits(t *testing.T, label string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d\ngot:  %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: hit %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestPrunedMatchesUnpruned is the core differential suite: across
// random databases, kernels, worker counts, K values and the optional
// prefilter, the pruned scan must return the bit-identical top-K —
// scores, endpoints and tie-break order — as the unpruned scan.
func TestPrunedMatchesUnpruned(t *testing.T) {
	for _, seed := range []int64{7, 19, 23} {
		g := bio.NewGenerator(seed)
		q := g.Random(250 + int(seed)*13)
		db := testDB(t, seed+100, q, 40, 12)
		for _, k := range []int{3, 10} {
			for _, route := range routeGrid() {
				for _, prefilter := range []bool{false, true} {
					base := route.opt
					base.TopK = k
					want, err := Run(q, db, base)
					if err != nil {
						t.Fatal(err)
					}
					pr := base
					pr.Prune = true
					pr.Prefilter = prefilter
					got, err := Run(q, db, pr)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("seed=%d k=%d route=%s prefilter=%v", seed, k, route.name, prefilter)
					requireSameHits(t, label, got.Hits, want.Hits)
					if got.Prune == nil {
						t.Fatalf("%s: no prune stats", label)
					}
					if n := got.Prune.Skipped + got.Prune.Abandoned + got.Prune.Scanned; n != got.Searched {
						t.Errorf("%s: stats cover %d of %d records", label, n, got.Searched)
					}
					if got.Prune.CellsSaved < 0 || got.Prune.CellsSaved > got.Cells {
						t.Errorf("%s: cells saved %d outside [0, %d]", label, got.Prune.CellsSaved, got.Cells)
					}
				}
			}
		}
	}
}

// TestPrunedMinScore pins the MinScore interaction: the floor may only
// be propped up by result-eligible records, so a high MinScore must
// yield the same (possibly short) hit list pruned and unpruned.
func TestPrunedMinScore(t *testing.T) {
	g := bio.NewGenerator(71)
	q := g.Random(300)
	db := testDB(t, 72, q, 30, 6)
	want, err := Run(q, db, Options{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Hits) < 3 {
		t.Fatal("test database produced too few hits")
	}
	for _, minScore := range []int{0, want.Hits[len(want.Hits)-1].Score, want.Hits[0].Score, want.Hits[0].Score + 1} {
		base := Options{TopK: 10, MinScore: minScore}
		ref, err := Run(q, db, base)
		if err != nil {
			t.Fatal(err)
		}
		pr := base
		pr.Prune, pr.Prefilter = true, true
		got, err := Run(q, db, pr)
		if err != nil {
			t.Fatal(err)
		}
		requireSameHits(t, fmt.Sprintf("minscore=%d", minScore), got.Hits, ref.Hits)
	}
}

// TestPrunedAdversarial drives the tie-handling edge cases: databases
// where nearly every record ties the floor must keep the exact
// index-order tie-breaks, and an all-unknown query (every bound zero)
// must skip everything and return the same empty result.
func TestPrunedAdversarial(t *testing.T) {
	g := bio.NewGenerator(81)
	q := g.Random(200)

	t.Run("all-identical-records", func(t *testing.T) {
		rec := g.Random(150)
		var db []bio.Record
		for i := 0; i < 30; i++ {
			db = append(db, bio.Record{ID: fmt.Sprintf("dup%d", i), Seq: rec.Clone()})
		}
		want, err := Run(q, db, Options{TopK: 7})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(q, db, Options{TopK: 7, Prune: true})
		if err != nil {
			t.Fatal(err)
		}
		requireSameHits(t, "identical", got.Hits, want.Hits)
		// Every kept hit ties: the winners must be the lowest indices.
		for i, h := range got.Hits {
			if h.Index != i {
				t.Errorf("tie-break broke: hit %d is record %d", i, h.Index)
			}
		}
	})

	t.Run("near-floor-ties", func(t *testing.T) {
		// Many mutated copies of the same query fragment: scores cluster
		// within a few points of each other, so the floor sits inside a
		// dense band of near-ties.
		frag := q[:120]
		var db []bio.Record
		for i := 0; i < 40; i++ {
			db = append(db, bio.Record{ID: fmt.Sprintf("tie%d", i), Seq: g.MutatedCopy(frag, bio.DefaultMutationModel())})
		}
		for _, prefilter := range []bool{false, true} {
			want, err := Run(q, db, Options{TopK: 10})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(q, db, Options{TopK: 10, Prune: true, Prefilter: prefilter})
			if err != nil {
				t.Fatal(err)
			}
			requireSameHits(t, fmt.Sprintf("near-ties prefilter=%v", prefilter), got.Hits, want.Hits)
		}
	})

	t.Run("all-unknown-query", func(t *testing.T) {
		nq, err := bio.NewSequence(strings.Repeat("N", 100))
		if err != nil {
			t.Fatal(err)
		}
		db := testDB(t, 83, q, 10, 0)
		got, err := Run(nq, db, Options{Prune: true, NoEndpoints: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Hits) != 0 {
			t.Errorf("all-N query produced hits: %+v", got.Hits)
		}
		if got.Prune.Skipped != len(db) {
			t.Errorf("all-N query skipped %d of %d records", got.Prune.Skipped, len(db))
		}
	})

	t.Run("k-exceeds-database", func(t *testing.T) {
		db := testDB(t, 84, q, 5, 2)
		want, err := Run(q, db, Options{TopK: 100})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(q, db, Options{TopK: 100, Prune: true, Prefilter: true})
		if err != nil {
			t.Fatal(err)
		}
		requireSameHits(t, "k>db", got.Hits, want.Hits)
	})
}

// TestPrunedActuallyPrunes pins that the machinery fires on a skewed
// database — strong hits planted first in scan order (the longest
// records), so the floor ratchets high early and the noise tail is
// skipped or abandoned. Without this, the differential suite could
// pass trivially with pruning never triggering.
func TestPrunedActuallyPrunes(t *testing.T) {
	g := bio.NewGenerator(91)
	q := g.Random(400)
	var db []bio.Record
	for i := 0; i < 12; i++ {
		// Planted full-query records, padded to be the longest in the db.
		pad := g.Random(100)
		db = append(db, bio.Record{ID: fmt.Sprintf("plant%d", i), Seq: append(append(bio.Sequence{}, pad...), q...)})
	}
	for i := 0; i < 60; i++ {
		db = append(db, bio.Record{ID: fmt.Sprintf("noise%d", i), Seq: g.Random(150 + i*5)})
	}
	want, err := Run(q, db, Options{NoEndpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(q, db, Options{NoEndpoints: true, Prune: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameHits(t, "skewed", got.Hits, want.Hits)
	st := got.Prune
	if st.Skipped+st.Abandoned == 0 {
		t.Fatalf("skewed database pruned nothing: %+v", st)
	}
	if st.CellsSaved == 0 || st.CellsSaved > got.Cells {
		t.Errorf("cells saved %d outside (0, %d]", st.CellsSaved, got.Cells)
	}
	if st.FloorFinal != want.Hits[len(want.Hits)-1].Score {
		t.Errorf("final floor %d, want the K-th best score %d", st.FloorFinal, want.Hits[len(want.Hits)-1].Score)
	}
}

// TestFloorRatchetRace is the -race coverage of the shared floor: many
// workers ratchet it while pushing near-tie hits, and the merged top-K
// must stay deterministic — identical to both a single-worker pruned
// run and the unpruned reference. Run with -race this also proves the
// atomic publish / lock discipline of floorTracker.
func TestFloorRatchetRace(t *testing.T) {
	g := bio.NewGenerator(101)
	q := g.Random(300)
	frag := q[:150]
	var db []bio.Record
	for i := 0; i < 120; i++ {
		// Alternate near-tie homologs and noise so every worker keeps
		// pushing scores right at the floor.
		if i%2 == 0 {
			db = append(db, bio.Record{ID: fmt.Sprintf("h%d", i), Seq: g.MutatedCopy(frag, bio.DefaultMutationModel())})
		} else {
			db = append(db, bio.Record{ID: fmt.Sprintf("n%d", i), Seq: g.Random(140 + i)})
		}
	}
	want, err := Run(q, db, Options{TopK: 15, NoEndpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(q, db, Options{TopK: 15, NoEndpoints: true, Prune: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameHits(t, "single-worker", single.Hits, want.Hits)
	for _, workers := range []int{4, 16} {
		for rep := 0; rep < 3; rep++ {
			got, err := Run(q, db, Options{TopK: 15, NoEndpoints: true, Prune: true, Prefilter: rep%2 == 0, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			requireSameHits(t, fmt.Sprintf("workers=%d rep=%d", workers, rep), got.Hits, want.Hits)
		}
	}
}

func TestFloorTracker(t *testing.T) {
	ft := newFloorTracker(3)
	if ft.get() != 0 || ft.threshold(0) != 1 {
		t.Fatalf("empty tracker: floor %d threshold %d", ft.get(), ft.threshold(0))
	}
	ft.push(10, 0)
	ft.push(20, 1)
	if ft.get() != 0 {
		t.Fatalf("floor published before K records: %d", ft.get())
	}
	ft.push(30, 2)
	if ft.get() != 10 {
		t.Fatalf("floor %d, want 10", ft.get())
	}
	ft.push(5, 3) // below the floor: no effect
	if ft.get() != 10 {
		t.Fatalf("floor dropped to %d", ft.get())
	}
	ft.push(15, 4) // displaces the 10
	if ft.get() != 15 {
		t.Fatalf("floor %d, want 15", ft.get())
	}
	if th := ft.threshold(40); th != 40 {
		t.Errorf("threshold with MinScore 40 = %d", th)
	}

	// Dedup mode: upgrading one record's lower bound must not count it
	// twice (the floor stays backed by 3 distinct records).
	ft = newFloorTracker(3)
	ft.dedup = true
	ft.push(10, 0)
	ft.push(12, 1)
	ft.push(50, 0) // same record, better evidence — still only 2 records
	if ft.get() != 0 {
		t.Fatalf("dedup failed: floor %d from 2 records", ft.get())
	}
	ft.push(20, 2)
	if ft.get() != 12 {
		t.Fatalf("floor %d, want 12", ft.get())
	}
}
