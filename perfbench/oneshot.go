package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"genomedsm/internal/bio"
	"genomedsm/internal/dbpack"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/search"
)

// oneshot_reads: thousands of records, about 1.2 Mbases, 200-base reads.
const (
	oneshotRecords = 3072
	oneshotLo      = 200
	oneshotHi      = 600
	readLen        = 200
	oneshotVerify  = 12
)

// oneshotOptions is `genomedsm search -pack -k 1 -prefilter`: +1/−1/−2
// scoring, auto dispatch, prune and prefilter on, endpoints on.
func oneshotOptions(r *dispatch.Router) search.Options {
	return search.Options{Scoring: bio.DefaultScoring(), TopK: 1, Prune: true, Prefilter: true, Dispatch: "auto", Router: r}
}

// calibrate is the set-up of the workloads without a resident service: a
// fresh dispatch calibration. It returns its seconds.
func calibrate(rc *runCtx, rep int, ss *setupStats) float64 {
	resetCalibration()
	liveHeap()
	t := time.Now()
	if rc.traced {
		rc.tr.do(-1-rep, 0, "dispatch.calibrate", func() error { dispatch.Host(); return nil })
		ss.calibrate = append(ss.calibrate, msSince(t))
	} else {
		dispatch.Host()
	}
	return time.Since(t).Seconds()
}

func noTeardown() error { return nil }

// oneshotOp is one `search -pack` invocation run in-process.
type oneshotOp struct {
	ms          float64 // open + scan + close
	ans         answer
	read        bio.Sequence
	open        time.Duration
	info        dbpack.Info
	alloc, mall uint64 // bytes and objects Open allocated (traced only)
}

// runOneshotOp opens the pack, scans read i, and closes the pack. The read
// is cut from the opened records between the timed segments. With a
// tracer it records the call's spans and, before closing, replays the
// scan one layer down into d.
func runOneshotOp(path string, seed int64, i int, opt search.Options, tr *tracer, op int, d *driverTrace) (oneshotOp, error) {
	var o oneshotOp
	var root, call, runID int
	var m0 runtime.MemStats
	if tr != nil {
		m0 = memNow()
		root = tr.begin(op, 0, "op")
		call = tr.begin(op, root, "oneshot.search")
	}
	t := time.Now()
	openID := 0
	if tr != nil {
		openID = tr.begin(op, call, "dbpack.open")
	}
	p, err := dbpack.Open(path)
	o.open = time.Since(t)
	if tr != nil {
		tr.end(openID)
		m1 := memNow()
		o.alloc, o.mall = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	}
	if err != nil {
		return o, err
	}
	defer p.Close()
	o.info = p.Info
	o.read = sampledRead(seed, i, readLen, p.DB.Records())
	if tr != nil {
		runID = tr.begin(op, call, "search.run")
	}
	t = time.Now()
	res, err := search.RunCtx(context.Background(), o.read, p.DB, opt)
	scan := time.Since(t)
	if err != nil {
		return o, err
	}
	o.ans = answer{qi: i, hits: hitsJSON(res.Hits), cells: res.Cells, prune: pruneJSON(res.Prune)}
	if tr != nil {
		tr.end(runID)
		tr.end(call)
		_, _, kth, err := d.replay(tr, op, runID, root, p.DB, []bio.Sequence{o.read}, opt)
		if err != nil {
			return o, err
		}
		d.prune(o.ans.prune, o.ans.cells, kth[0])
	}
	t = time.Now()
	err = p.Close()
	o.ms = float64(o.open+scan+time.Since(t)) / 1e6
	if tr != nil {
		tr.end(root)
	}
	return o, err
}

func runOneshot(rc *runCtx) (*outcome, error) {
	recs := noiseDB(rc.seed, oneshotRecords, oneshotLo, oneshotHi)
	path, err := writePack(rc.dir, recs)
	if err != nil {
		return nil, err
	}
	var dbBases int64
	for _, r := range recs {
		dbBases += int64(len(r.Seq))
	}
	rc.log("pack %d records, %d bases; reads of %d bases", len(recs), dbBases, readLen)
	recs = nil

	out := &outcome{}
	var ops []oneshotOp
	if rc.traced {
		L, err := traceOneshot(rc, path, dbBases, out, &ops)
		if err != nil {
			return nil, err
		}
		out.layers = L
	} else {
		var router *dispatch.Router
		err := lives(rc, out, func() (func() error, float64, error) {
			secs := calibrate(rc, 0, nil)
			router = dispatch.New(dispatch.ModeAuto, dispatch.Host())
			return noTeardown, secs, nil
		}, func(deadline time.Time) error {
			opt := oneshotOptions(router)
			for i := len(ops); time.Now().Before(deadline); i++ {
				o, err := runOneshotOp(path, rc.seed, i, opt, nil, 0, nil)
				if err != nil {
					return err
				}
				ops = append(ops, o)
				out.load.request(o.ms, 1, 0, fullCells(len(o.read), dbBases))
			}
			rc.log("routes group=%v pair=%v", router.GroupCounts(), router.PairCounts())
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// Verify a seeded sample against an unpruned, unfiltered fixed-route
	// scan of an in-memory database built from regenerated records.
	ref := search.NewDB(noiseDB(rc.seed, oneshotRecords, oneshotLo, oneshotHi))
	for _, i := range sample(rc.seed, len(ops), oneshotVerify) {
		o := ops[i]
		want, err := search.RunCtx(context.Background(), o.read, ref, search.Options{TopK: 1, Dispatch: "fixed"})
		if err != nil {
			return nil, err
		}
		out.verified++
		if msg := checkAnswer(o.ans, want, len(o.read), ref.TotalBases()); msg != "" {
			rc.log("MISMATCH read %d: %s", i, msg)
			out.mismatches++
			out.load.failed++
			out.load.cells -= fullCells(len(o.read), ref.TotalBases())
		}
	}
	return out, nil
}

// traceOneshot is the traced mode: setupReps calibrations, a first
// quarter of untraced operations for the overhead baseline, then traced
// operations, each replayed one layer down before its pack is closed.
func traceOneshot(rc *runCtx, path string, dbBases int64, out *outcome, ops *[]oneshotOp) (map[string]float64, error) {
	ss := &setupStats{}
	for rep := 0; rep < setupReps; rep++ {
		calibrate(rc, rep, ss)
	}
	router := dispatch.New(dispatch.ModeAuto, dispatch.Host())
	opt := oneshotOptions(router)
	g0, p0 := router.GroupCounts(), router.PairCounts()
	var d driverTrace
	var open, alloc, mall, untraced, traced []float64
	start := time.Now()
	for i := 0; time.Now().Before(rc.deadline(start)); i++ {
		var tr *tracer
		if time.Since(start) >= rc.seconds/4 {
			tr = rc.tr
		}
		o, err := runOneshotOp(path, rc.seed, i, opt, tr, i+1, &d)
		if err != nil {
			return nil, err
		}
		*ops = append(*ops, o)
		out.load.request(o.ms, 1, 0, fullCells(len(o.read), dbBases))
		if tr == nil {
			untraced = append(untraced, o.ms)
			continue
		}
		open = append(open, float64(o.open)/1e6)
		alloc = append(alloc, float64(o.alloc)/1e6)
		mall = append(mall, float64(o.mall))
		traced = append(traced, o.ms)
	}
	L := map[string]float64{}
	setupLayers(L, ss)
	routeShares(L, g0, router.GroupCounts(), p0, router.PairCounts())
	d.fill(L)
	L["dbpack.open_ms"] = median(open)
	L["dbpack.open_alloc_mb"] = median(alloc)
	L["dbpack.open_allocs"] = median(mall)
	last := (*ops)[len(*ops)-1].info
	L["dbpack.heap_mb"] = float64(last.HeapBytes) / 1e6
	L["dbpack.mapped_mb"] = float64(last.MappedBytes) / 1e6
	L["trace.ops"] = float64(len(traced))
	traceOverhead(L, traced, untraced)
	return L, nil
}

// checkAnswer compares one answer with the reference scan's result.
func checkAnswer(a answer, want *search.Result, qLen int, dbBases int64) string {
	if msg := compareHits(a.hits, want.Hits); msg != "" {
		return msg
	}
	if a.cells != fullCells(qLen, dbBases) {
		return fmt.Sprintf("cells %d, want %d", a.cells, fullCells(qLen, dbBases))
	}
	return ""
}
