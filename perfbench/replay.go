package main

import (
	"context"
	"runtime"
	"sort"
	"strings"
	"time"

	"genomedsm/internal/bio"
	"genomedsm/internal/search"
	"genomedsm/internal/server"
	"genomedsm/internal/swar"
)

// driverTrace replays operations through the single-node scan driver and
// the layers below it, and accumulates the search, swar and blast layer
// metrics.
type driverTrace struct {
	al swar.Aligner

	scanMS, realignMS, realignShare, eff, gain, seedMS []float64
	kernelCells                                        int64
	kernelSec                                          float64
	padded, cells                                      int64

	// from the real calls' prune statistics
	skipped, abandoned, searched, saved, prunedCells int64
	floors, seedShare                                []float64
}

// replay runs one operation's queries one layer down under parent: the
// driver span (search.RunBatch without endpoints, then search.Realign of
// its hits, nested), the kernels over the full matrix (swar.kernel), the
// blast seeding when the prefilter is on (blast.seed), and — for batches
// of several queries — each query alone (search.solo, under root). It
// returns the driver and scan spans' durations and the K-th best seed
// score of each query (nil without the prefilter).
func (d *driverTrace) replay(tr *tracer, op, parent, root int, db *search.DB, qs []bio.Sequence, opt search.Options) (driver, scan time.Duration, kth []int, err error) {
	ctx := context.Background()
	noEnd := opt
	noEnd.NoEndpoints = true
	bq := make([]search.BatchQuery, len(qs))
	for k, q := range qs {
		bq[k] = search.BatchQuery{Seq: q}
	}
	recs := db.Records()

	drv := tr.begin(op, parent, "search.driver")
	scanID := tr.begin(op, drv, "search.scan")
	brs, err := search.RunBatch(ctx, bq, db, noEnd)
	scan = tr.end(scanID)
	if err != nil {
		return 0, 0, nil, err
	}
	realignDur, err := tr.do(op, drv, "search.realign", func() error {
		for k, br := range brs {
			if br.Err != nil {
				return br.Err
			}
			if err := search.Realign(qs[k], recs, opt.Scoring, append([]search.Hit(nil), br.Result.Hits...)); err != nil {
				return err
			}
		}
		return nil
	})
	driver = tr.end(drv)
	if err != nil {
		return 0, 0, nil, err
	}
	for _, br := range brs {
		d.padded += br.Result.PaddedCells
		d.cells += br.Result.Cells
	}

	kernelDur, _ := tr.do(op, scanID, "swar.kernel", func() error {
		for _, q := range qs {
			d.kernelCells += kernelReplay(&d.al, opt.Router.NewScan(), q, recs, db.Order(), opt.Scoring)
		}
		return nil
	})
	d.kernelSec += kernelDur.Seconds()

	if opt.Prefilter && db.WordIndex() != nil {
		k := max(opt.TopK, 1)
		dur, _ := tr.do(op, scanID, "blast.seed", func() error {
			for _, q := range qs {
				s := db.WordIndex().SeedScores(q, opt.Scoring, 0)
				sort.Sort(sort.Reverse(sort.IntSlice(s)))
				kth = append(kth, s[min(k, len(s))-1])
			}
			return nil
		})
		d.seedMS = append(d.seedMS, float64(dur)/1e6)
	}

	if len(qs) > 1 {
		soloDur, err := tr.do(op, root, "search.solo", func() error {
			for _, q := range qs {
				if _, err := search.RunCtx(ctx, q, db, noEnd); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, 0, nil, err
		}
		d.gain = append(d.gain, float64(soloDur)/float64(scan))
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	d.scanMS = append(d.scanMS, float64(scan)/1e6)
	d.realignMS = append(d.realignMS, float64(realignDur)/1e6)
	d.realignShare = append(d.realignShare, float64(realignDur)/float64(scan+realignDur))
	d.eff = append(d.eff, float64(kernelDur)/(float64(workers)*float64(scan)))
	return driver, scan, kth, nil
}

// prune records one real answer's pruning statistics; kth is the query's
// K-th best seed score, or -1 without the prefilter.
func (d *driverTrace) prune(p *server.PruneJSON, cells int64, kth int) {
	if p == nil {
		return
	}
	d.skipped += int64(p.Skipped)
	d.abandoned += int64(p.Abandoned)
	d.searched += int64(p.Skipped + p.Abandoned + p.Scanned)
	d.saved += p.CellsSaved
	d.prunedCells += cells
	d.floors = append(d.floors, float64(p.FloorFinal))
	if kth >= 0 && p.FloorFinal > 0 {
		d.seedShare = append(d.seedShare, float64(kth)/float64(p.FloorFinal))
	}
}

func (d *driverTrace) fill(L map[string]float64) {
	L["swar.kernel_mcups"] = ratio(float64(d.kernelCells), d.kernelSec) / 1e6
	L["search.scan_ms"] = median(d.scanMS)
	L["search.realign_ms"] = median(d.realignMS)
	L["search.realign_share"] = median(d.realignShare)
	L["search.driver_efficiency"] = median(d.eff)
	L["search.padded_share"] = ratio(float64(d.padded), float64(d.cells))
	if len(d.gain) > 0 {
		L["search.batch_gain"] = median(d.gain)
	}
	L["search.prune.skipped_share"] = ratio(float64(d.skipped), float64(d.searched))
	L["search.prune.abandoned_share"] = ratio(float64(d.abandoned), float64(d.searched))
	L["search.prune.cells_saved_share"] = ratio(float64(d.saved), float64(d.prunedCells))
	L["search.prune.floor_final"] = median(d.floors)
	if len(d.seedMS) > 0 {
		L["blast.seed_ms"] = median(d.seedMS)
		L["blast.seed_floor_share"] = median(d.seedShare)
	}
}

// pruneJSON mirrors search.PruneStats as the server reports it.
func pruneJSON(p *search.PruneStats) *server.PruneJSON {
	if p == nil {
		return nil
	}
	return &server.PruneJSON{Skipped: p.Skipped, Abandoned: p.Abandoned, Scanned: p.Scanned, CellsSaved: p.CellsSaved, FloorFinal: p.FloorFinal}
}

// hitsJSON mirrors search hits as the server reports them, with IDs
// copied out of any mapped pack memory.
func hitsJSON(hs []search.Hit) []server.HitJSON {
	out := make([]server.HitJSON, len(hs))
	for i, h := range hs {
		out[i] = server.HitJSON{Index: h.Index, ID: strings.Clone(h.ID), Score: h.Score,
			QBegin: h.QBegin, QEnd: h.QEnd, TBegin: h.TBegin, TEnd: h.TEnd}
	}
	return out
}
