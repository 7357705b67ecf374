package chaos

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"genomedsm/internal/bio"
	"genomedsm/internal/search"
	"genomedsm/internal/shard"
)

func TestCheckShardedSearchClean(t *testing.T) {
	rep, err := CheckShardedSearch(SearchOptions{Seed: 1, Schedules: 2, KillShard: NoKill})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 2 {
		t.Fatalf("ran %d schedules, want 2", rep.Runs)
	}
}

func TestCheckShardedSearchFaults(t *testing.T) {
	rep, err := CheckShardedSearch(SearchOptions{
		Seed: 2, Schedules: 2, KillShard: NoKill,
		Loss: 0.2, Dup: 0.1, Reorder: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Stats.MsgsLost+rep.Stats.MsgsDuped+rep.Stats.MsgsReordered == 0 {
		t.Error("fault schedule injected nothing")
	}
}

func TestCheckShardedSearchKill(t *testing.T) {
	rep, err := CheckShardedSearch(SearchOptions{Seed: 3, Schedules: 2, KillShard: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	// The oracle itself asserts the counters; double-check the proof
	// reached the report.
	if rep.Stats.Kills < 1 || rep.Stats.Reassigns < 1 {
		t.Fatalf("kill sweep left no recovery evidence: %+v", rep.Stats)
	}
	if _, err := CheckShardedSearch(SearchOptions{Seed: 3, Shards: 2, KillShard: 7}); err == nil {
		t.Fatal("out-of-range kill shard accepted")
	}
}

// TestRunShardedOnceReplays pins the replayability contract: the same
// (options, fault seed) pair reproduces identical results — hits, their
// order and tie-breaks, Searched and Cells, the fields the oracle
// checks — and both runs actually drew faults. (Per-message draws are a
// pure function of (seed, link, send ordinal); aggregate counters can
// differ because retry and heartbeat send counts are timing-dependent,
// and so can Result.PaddedCells and Result.Prune, which depend on when
// gossiped floors arrive.)
func TestRunShardedOnceReplays(t *testing.T) {
	opt := SearchOptions{Seed: 5, KillShard: NoKill, Loss: 0.3, Dup: 0.1}
	seed := SearchPlanSeed(opt.Seed, 1)
	res1, st1, err := RunShardedOnce(opt, seed)
	if err != nil {
		t.Fatal(err)
	}
	res2, st2, err := RunShardedOnce(opt, seed)
	if err != nil {
		t.Fatal(err)
	}
	if detail := compareBatches(res2, res1); detail != "" {
		t.Fatalf("same fault seed produced different results: %s", detail)
	}
	if st1.MsgsLost == 0 || st2.MsgsLost == 0 {
		t.Fatalf("a lossy replay drew no losses: %d / %d", st1.MsgsLost, st2.MsgsLost)
	}
}

// FuzzShardPlan fuzzes partition shapes — empty shards, single-record
// spans, k larger than any shard, databases of all-identical lengths —
// and asserts the sharded search stays bit-identical to the single-node
// oracle under every valid plan the inputs decode to.
func FuzzShardPlan(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3), uint8(5), false, []byte{4, 8})
	f.Add(int64(2), uint8(1), uint8(4), uint8(3), false, []byte{})
	f.Add(int64(3), uint8(16), uint8(5), uint8(40), true, []byte{0, 0, 1, 16})
	f.Add(int64(4), uint8(9), uint8(2), uint8(1), true, []byte{9})
	f.Fuzz(func(t *testing.T, seed int64, n, shards, k uint8, identical bool, cuts []byte) {
		nn := int(n)%24 + 1
		ns := int(shards)%6 + 1
		kk := int(k)%48 + 1
		g := bio.NewGenerator(seed)
		recs := make([]bio.Record, nn)
		for i := range recs {
			rl := 150
			if !identical {
				rl = 60 + (i*37)%120
			}
			recs[i] = bio.Record{ID: fmt.Sprintf("r%d", i), Seq: g.Random(rl)}
		}
		q := g.Random(100)
		db := search.NewDB(recs)

		// Decode the fuzz bytes into a custom plan: each byte is a cut
		// rank; sorted and clamped they become span boundaries. Invalid
		// plans (wrong count after dedup) fall back to the balanced
		// planner — the fuzz target's job is exploring valid shapes, not
		// re-testing ValidateSpans rejection.
		spans := decodeCuts(cuts, nn, ns)
		if spans != nil {
			if err := shard.ValidateSpans(spans, nn); err != nil {
				t.Fatalf("decodeCuts produced invalid plan %v: %v", spans, err)
			}
		}

		opt := search.Options{Prune: true, TopK: kk}
		want, err := search.RunCtx(context.Background(), q, db, opt)
		if err != nil {
			t.Fatal(err)
		}
		c, err := shard.New(db, shard.Options{Shards: ns, Spans: spans, Lease: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		got, err := c.Search(context.Background(), q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Hits, want.Hits) {
			t.Fatalf("plan %v (n=%d shards=%d k=%d identical=%v):\n got %+v\nwant %+v",
				spans, nn, ns, kk, identical, got.Hits, want.Hits)
		}
		if got.Searched != want.Searched || got.Cells != want.Cells {
			t.Fatalf("plan %v: searched/cells %d/%d, single-node %d/%d",
				spans, got.Searched, got.Cells, want.Searched, want.Cells)
		}
	})
}

// decodeCuts turns fuzz bytes into a valid ns-span partition of [0, n),
// or nil (meaning: use the balanced planner) when the bytes don't
// supply enough distinct interior cuts.
func decodeCuts(cuts []byte, n, ns int) []shard.Span {
	if ns == 1 {
		return nil
	}
	seen := map[int]bool{}
	var pts []int
	for _, b := range cuts {
		p := int(b) % (n + 1)
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
		if len(pts) == ns-1 {
			break
		}
	}
	if len(pts) < ns-1 {
		return nil
	}
	for i := range pts { // insertion sort; tiny
		for j := i; j > 0 && pts[j] < pts[j-1]; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	spans := make([]shard.Span, ns)
	lo := 0
	for i := 0; i < ns; i++ {
		hi := n
		if i < ns-1 {
			hi = pts[i]
		}
		spans[i] = shard.Span{Lo: lo, Hi: hi}
		lo = hi
	}
	return spans
}
