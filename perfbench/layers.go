package main

import (
	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/swar"
)

type layerMetric struct{ name, unit string }

// perLayer lists every metric a traced run prints, in BENCHMARK.json's
// order. A metric whose layer a workload does not reach is printed as 0.
var perLayer = []layerMetric{
	{"swar.kernel_mcups", "Mcells/s"},
	{"dispatch.calibrate_ms", "ms"},
	{"dispatch.route_share.inter8", "ratio"},
	{"dispatch.route_share.inter16", "ratio"},
	{"dispatch.route_share.singles", "ratio"},
	{"dispatch.route_share.scalar", "ratio"},
	{"dispatch.pair_share.striped8", "ratio"},
	{"dispatch.pair_share.striped16", "ratio"},
	{"dispatch.pair_share.scalar", "ratio"},
	{"search.scan_ms", "ms"},
	{"search.realign_ms", "ms"},
	{"search.realign_share", "ratio"},
	{"search.driver_efficiency", "ratio"},
	{"search.padded_share", "ratio"},
	{"search.batch_gain", "ratio"},
	{"search.prune.skipped_share", "ratio"},
	{"search.prune.abandoned_share", "ratio"},
	{"search.prune.cells_saved_share", "ratio"},
	{"search.prune.floor_final", "score"},
	{"blast.seed_ms", "ms"},
	{"blast.seed_floor_share", "ratio"},
	{"dbpack.open_ms", "ms"},
	{"dbpack.open_alloc_mb", "MB"},
	{"dbpack.open_allocs", "count"},
	{"dbpack.heap_mb", "MB"},
	{"dbpack.mapped_mb", "MB"},
	{"server.overhead_ms", "ms"},
	{"server.ratio", "ratio"},
	{"server.queries_per_scan", "count"},
	{"server.response_kb", "KB"},
	{"server.rejected", "count"},
	{"server.cancelled", "count"},
	{"shard.ratio", "ratio"},
	{"shard.scan_ratio", "ratio"},
	{"shard.imbalance", "ratio"},
	{"shard.retries_per_query", "count"},
	{"shard.gossip_per_query", "count"},
	{"shard.broadcasts_per_query", "count"},
	{"shard.reassigns", "count"},
	{"wavefront.noblock_ms", "ms"},
	{"wavefront.blocked_ms", "ms"},
	{"preprocess.ms", "ms"},
	{"phase2.ms", "ms"},
	{"dsm.page_fetches", "count"},
	{"dsm.msgs", "count"},
	{"dsm.mb_moved", "MB"},
	{"dsm.lock_acquires", "count"},
	{"dsm.barriers", "count"},
	{"cluster.makespan_s.heuristic", "s"},
	{"cluster.makespan_s.heuristic-block", "s"},
	{"cluster.makespan_s.pre-process", "s"},
	{"cluster.compute_share", "ratio"},
	{"cluster.comm_share", "ratio"},
	{"cluster.lockcv_share", "ratio"},
	{"cluster.barrier_share", "ratio"},
	{"trace.ops", "count"},
	{"trace.overhead_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

// routeShares turns router counter deltas into the dispatch.route_share.*
// and dispatch.pair_share.* metrics.
func routeShares(layers map[string]float64, g0, g1, p0, p1 map[string]int64) {
	share := func(prefix string, names []string, a, b map[string]int64) {
		var total int64
		for _, n := range names {
			total += b[n] - a[n]
		}
		for _, n := range names {
			v := 0.0
			if total > 0 {
				v = float64(b[n]-a[n]) / float64(total)
			}
			layers[prefix+n] = v
		}
	}
	share("dispatch.route_share.", []string{"inter8", "inter16", "singles", "scalar"}, g0, g1)
	share("dispatch.pair_share.", []string{"striped8", "striped16", "scalar"}, p0, p1)
}

// kernelReplay scores q against every record single-threaded, lane group
// by lane group in the canonical scan order, down the route a router with
// the same profile picks: inter8 groups through Scan8 (saturated lanes
// retried in Scan16, then scalar), inter16 through Scan16, singles
// through the striped ladder, scalar through the exact scalar kernel. No
// pruning: it measures the kernels alone over the full matrix. It returns
// the true cells scored.
func kernelReplay(al *swar.Aligner, st *dispatch.ScanState, q bio.Sequence, recs []bio.Record, order []int, sc bio.Scoring) int64 {
	var cells int64
	targets := make([]bio.Sequence, 0, bio.PackedLanes8)
	lens := make([]int, 0, bio.PackedLanes8)
	inter16 := func(ts []bio.Sequence) {
		for lo := 0; lo < len(ts); lo += bio.PackedLanes16 {
			sub := ts[lo:min(lo+bio.PackedLanes16, len(ts))]
			ls, ok := al.Scan16(q, sub, sc)
			for l, t := range sub {
				if !ok || ls.Saturated&(1<<uint(l)) != 0 {
					swar.ScalarScoreBounded(q, t, sc, nil)
				}
			}
		}
	}
	for lo := 0; lo < len(order); lo += bio.PackedLanes8 {
		targets, lens = targets[:0], lens[:0]
		for _, ix := range order[lo:min(lo+bio.PackedLanes8, len(order))] {
			t := recs[ix].Seq
			targets = append(targets, t)
			lens = append(lens, len(t))
			cells += int64(len(q)) * int64(len(t))
		}
		switch st.Group(len(q), lens, sc) {
		case dispatch.GroupInter8:
			ls, ok := al.Scan8(q, targets, sc)
			if !ok {
				inter16(targets)
				continue
			}
			var narrow []bio.Sequence
			possible, flagged := 0, 0
			for l := 0; l < ls.Lanes; l++ {
				sat := ls.Saturated&(1<<uint(l)) != 0
				if dispatch.SatPossible8(len(q), lens[l], sc) {
					possible++
					if sat {
						flagged++
					}
				}
				if sat {
					narrow = append(narrow, targets[l])
				}
			}
			st.Observe8(possible, flagged)
			inter16(narrow)
		case dispatch.GroupInter16:
			inter16(targets)
		case dispatch.GroupSingles:
			for _, t := range targets {
				al.StripedScore(q, t, sc)
			}
		default:
			for _, t := range targets {
				swar.ScalarScoreBounded(q, t, sc, nil)
			}
		}
	}
	return cells
}
