package shard

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/search"
)

// synthInputs builds the reproducible query + database pair the tests
// scan: noise records with mutated query fragments planted every
// eighth, the same shape the CLI synthesizes.
func synthInputs(seed int64, qLen, n, baseLen int) (bio.Sequence, []bio.Record) {
	g := bio.NewGenerator(seed)
	q := g.Random(qLen)
	recs := make([]bio.Record, 0, n)
	for i := 0; i < n; i++ {
		if i%8 == 3 && qLen >= 2 {
			half := qLen / 2
			frag := q[(i*13)%half : half+(i*29)%(half+1)]
			recs = append(recs, bio.Record{
				ID: fmt.Sprintf("hom%d", i), Seq: g.MutatedCopy(frag, bio.DefaultMutationModel()),
			})
			continue
		}
		rl := baseLen/2 + (i*37)%(baseLen+1)
		recs = append(recs, bio.Record{ID: fmt.Sprintf("rec%d", i), Seq: g.Random(rl)})
	}
	return q, recs
}

// inter16Router pins every lane group to the int16 route: two 4-lane
// word-passes per 8-record group.
func inter16Router() *dispatch.Router {
	r := dispatch.New(dispatch.ModeAuto, nil)
	r.ForceGroup = func(int, []int) (dispatch.GroupRoute, bool) { return dispatch.GroupInter16, true }
	return r
}

// quietOptions returns cluster options that cannot false-positive a
// death during a clean test run on a slow host.
func quietOptions(shards int) Options {
	return Options{Shards: shards, Lease: time.Hour, Heartbeat: time.Second}
}

func mustEqualResults(t *testing.T, label string, got, want *search.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Hits, want.Hits) {
		t.Fatalf("%s: hits diverge\n got %+v\nwant %+v", label, got.Hits, want.Hits)
	}
	if got.Searched != want.Searched || got.Cells != want.Cells {
		t.Fatalf("%s: searched/cells %d/%d, want %d/%d",
			label, got.Searched, got.Cells, want.Searched, want.Cells)
	}
}

// TestShardedMatchesSingleNode pins bit-exactness of the sharded scan
// against search.RunCtx over shard counts and option shapes.
func TestShardedMatchesSingleNode(t *testing.T) {
	q, recs := synthInputs(42, 240, 48, 320)
	db := search.NewDB(recs)
	for _, opt := range []search.Options{
		{},
		{Prune: true},
		{Prune: true, Prefilter: true},
		{Router: inter16Router(), TopK: 5},
		{Dispatch: "scalar", TopK: 3, Prune: true},
		{Dispatch: "fixed", TopK: 4, Prune: true},
		{MinScore: 25, Prune: true},
		{NoEndpoints: true, TopK: 20},
	} {
		want, err := search.RunCtx(context.Background(), q, db, opt)
		if err != nil {
			t.Fatalf("single-node: %v", err)
		}
		for _, shards := range []int{1, 2, 3, 4, 9} {
			c, err := New(db, quietOptions(shards))
			if err != nil {
				t.Fatalf("New(%d): %v", shards, err)
			}
			got, err := c.Search(context.Background(), q, opt)
			c.Close()
			if err != nil {
				t.Fatalf("shards=%d opt=%+v: %v", shards, opt, err)
			}
			mustEqualResults(t, fmt.Sprintf("shards=%d opt=%+v", shards, opt), got, want)
		}
	}
}

// TestShardedBatchMatchesSingleNode covers the multi-query path the
// serve layer uses.
func TestShardedBatchMatchesSingleNode(t *testing.T) {
	q1, recs := synthInputs(7, 200, 40, 300)
	q2 := bio.NewGenerator(8).Random(150)
	db := search.NewDB(recs)
	opt := search.Options{Prune: true}
	batch := []search.BatchQuery{{Seq: q1}, {Seq: q2, TopK: 4}}
	want, err := search.RunBatch(context.Background(), batch, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(db, quietOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.SearchBatch(context.Background(), batch, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("query %d: errs %v / %v", i, got[i].Err, want[i].Err)
		}
		mustEqualResults(t, fmt.Sprintf("query %d", i), got[i].Result, want[i].Result)
	}
}

// TestMergeTieBreakAcrossShardBoundaries pins the canonical merge order
// when per-shard heaps hold floor-tied scores: identical records score
// identically, the K-th place ties break by record index ascending, and
// the winners must not depend on where the shard cuts fall — including
// custom plans that slice straight through a tie run.
func TestMergeTieBreakAcrossShardBoundaries(t *testing.T) {
	g := bio.NewGenerator(99)
	strong := g.Random(120)
	weak := g.Random(120)
	q := strong
	// 24 records, all the same length so the canonical order is pure
	// index order: 12 copies of the query itself (top scores, all tied)
	// interleaved with 12 copies of an unrelated sequence.
	var recs []bio.Record
	for i := 0; i < 24; i++ {
		seq := weak
		if i%2 == 0 {
			seq = strong
		}
		recs = append(recs, bio.Record{ID: fmt.Sprintf("r%d", i), Seq: seq})
	}
	db := search.NewDB(recs)
	const k = 8
	opt := search.Options{TopK: k, Prune: true}
	want, err := search.RunCtx(context.Background(), q, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the expected winners are the 8 lowest-indexed strong
	// copies, in index order — the tie-break the merge must preserve.
	for i, h := range want.Hits {
		if h.Index != 2*i {
			t.Fatalf("baseline hit %d is record %d, want %d (tie-break drifted)", i, h.Index, 2*i)
		}
	}
	cases := []struct {
		name   string
		shards int
		spans  []Span
	}{
		{"1 shard", 1, nil},
		{"2 shards", 2, nil},
		{"3 shards", 3, nil},
		{"5 shards", 5, nil},
		{"24 shards", 24, nil},
		{"cut inside tie run", 3, []Span{{0, 5}, {5, 11}, {11, 24}}},
		{"one record spans", 4, []Span{{0, 1}, {1, 2}, {2, 3}, {3, 24}}},
		{"empty first shard", 3, []Span{{0, 0}, {0, 13}, {13, 24}}},
	}
	for _, tc := range cases {
		copt := quietOptions(tc.shards)
		copt.Spans = tc.spans
		c, err := New(db, copt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := c.Search(context.Background(), q, opt)
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mustEqualResults(t, tc.name, got, want)
	}
}

// TestKillOneShardMidQuery is the acceptance pin: a shard killed after
// its first group scan must be invisible in the results across ≥8
// seeds, and the counters must prove a kill, a detected death and a
// reassignment actually happened.
func TestKillOneShardMidQuery(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		q, recs := synthInputs(seed, 220, 48, 320)
		db := search.NewDB(recs)
		opt := search.Options{Prune: true, TopK: 7}
		want, err := search.RunCtx(context.Background(), q, db, opt)
		if err != nil {
			t.Fatal(err)
		}
		victim := int(seed) % 4
		c, err := New(db, Options{
			Shards:    4,
			Timeout:   40 * time.Millisecond,
			Lease:     250 * time.Millisecond,
			Heartbeat: 25 * time.Millisecond,
			Kills:     []Kill{{Shard: victim, AfterGroups: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Search(context.Background(), q, opt)
		if err != nil {
			c.Close()
			t.Fatalf("seed %d: %v", seed, err)
		}
		st := c.Stats()
		c.Close()
		mustEqualResults(t, fmt.Sprintf("seed %d (killed shard %d)", seed, victim), got, want)
		if st.Kills < 1 {
			t.Fatalf("seed %d: no kill recorded: %+v", seed, st)
		}
		if st.DeadDetected < 1 {
			t.Fatalf("seed %d: death never detected: %+v", seed, st)
		}
		if st.Reassigns < 1 {
			t.Fatalf("seed %d: span never reassigned: %+v", seed, st)
		}
		if !st.Shards[victim].Killed {
			t.Fatalf("seed %d: victim %d not marked killed: %+v", seed, victim, st.Shards[victim])
		}
	}
}

// TestLossDupReorderStaysExact drives the protocol through heavy
// transport faults: results stay bit-identical and retransmission
// covers the losses.
func TestLossDupReorderStaysExact(t *testing.T) {
	q, recs := synthInputs(5, 200, 40, 300)
	db := search.NewDB(recs)
	opt := search.Options{Prune: true}
	want, err := search.RunCtx(context.Background(), q, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		c, err := New(db, Options{
			Shards:  4,
			Timeout: 25 * time.Millisecond,
			Lease:   time.Hour, // loss cannot kill a node; no false deaths
			Faults: &FaultConfig{
				Seed: seed, Loss: 0.4, Dup: 0.2, Reorder: 0.2,
				DelayBase: 100 * time.Microsecond, DelayJitter: time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Search(context.Background(), q, opt)
		st := c.Stats()
		c.Close()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mustEqualResults(t, fmt.Sprintf("faults seed %d", seed), got, want)
		if st.MsgsLost == 0 {
			t.Errorf("seed %d: fault plan injected no loss (loss=0.4 over %d+ sends)", seed, 8)
		}
	}
}

// TestPerQueryCancelStopsRemoteWork pins the serve satellite: one
// query's cancellation reaches the shards and stops its scan work
// there, while the other query of the batch completes bit-exactly.
func TestPerQueryCancelStopsRemoteWork(t *testing.T) {
	q1, recs := synthInputs(3, 300, 96, 500)
	q2 := bio.NewGenerator(4).Random(200)
	db := search.NewDB(recs)
	opt := search.Options{Dispatch: "scalar"} // slow enough that the cancel lands mid-scan
	wantBatch, err := search.RunBatch(context.Background(),
		[]search.BatchQuery{{Seq: q2, TopK: 5}}, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(db, quietOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before scatter: deterministic
	got, err := c.SearchBatch(context.Background(), []search.BatchQuery{
		{Seq: q1, Ctx: ctx},
		{Seq: q2, TopK: 5},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Err == nil {
		t.Fatal("cancelled query returned no error")
	}
	if got[0].Result.Searched >= db.Size() {
		t.Fatalf("cancelled query still scanned all %d records remotely", db.Size())
	}
	if got[1].Err != nil {
		t.Fatalf("surviving query errored: %v", got[1].Err)
	}
	mustEqualResults(t, "surviving query", got[1].Result, wantBatch[0].Result)
}

// TestRetriesRecoverLostRequests forces pure request loss and checks
// the retry counter moved.
func TestRetriesRecoverLostRequests(t *testing.T) {
	q, recs := synthInputs(9, 150, 24, 250)
	db := search.NewDB(recs)
	c, err := New(db, Options{
		Shards:  2,
		Timeout: 15 * time.Millisecond,
		Lease:   time.Hour,
		Faults:  &FaultConfig{Seed: 17, Loss: 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want, err := search.RunCtx(context.Background(), q, db, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Search(context.Background(), q, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "lossy", got, want)
	if st := c.Stats(); st.Retries == 0 && st.MsgsLost == 0 {
		t.Errorf("60%% loss produced neither retries nor recorded losses: %+v", st)
	}
}

// TestStatsShape sanity-checks the health snapshot after clean traffic.
func TestStatsShape(t *testing.T) {
	q, recs := synthInputs(21, 150, 24, 250)
	db := search.NewDB(recs)
	c, err := New(db, Options{Shards: 3, Lease: time.Hour, Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Search(context.Background(), q, search.Options{Prune: true}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Queries != 1 || st.Batches != 1 {
		t.Fatalf("queries/batches %d/%d, want 1/1", st.Queries, st.Batches)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("%d shard healths, want 3", len(st.Shards))
	}
	var answered int64
	for _, h := range st.Shards {
		if !h.Alive || h.Killed {
			t.Fatalf("clean shard unhealthy: %+v", h)
		}
		answered += h.Answered
	}
	if answered != 3 {
		t.Fatalf("%d spans answered, want 3", answered)
	}
}

// TestSearchAfterClose and hook rejection.
func TestSearchBatchValidation(t *testing.T) {
	q, recs := synthInputs(33, 100, 8, 200)
	db := search.NewDB(recs)
	c, err := New(db, quietOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SearchBatch(context.Background(), []search.BatchQuery{
		{Seq: q, OnScore: func(int, int) {}},
	}, search.Options{}); err == nil {
		t.Fatal("reserved hooks accepted")
	}
	c.Close()
	if _, err := c.Search(context.Background(), q, search.Options{}); err == nil {
		t.Fatal("closed cluster accepted a search")
	}
	if _, err := New(db, Options{Shards: 0}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := New(db, Options{Shards: 2, Kills: []Kill{{Shard: 5}}}); err == nil {
		t.Fatal("out-of-range kill accepted")
	}
	bad := quietOptions(2)
	bad.Spans = []Span{{0, 3}, {4, 8}}
	if _, err := New(db, bad); err == nil {
		t.Fatal("gapped custom plan accepted")
	}
}
