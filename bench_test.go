package genomedsm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/dbpack"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/experiments"
	"genomedsm/internal/heuristics"
	"genomedsm/internal/search"
	"genomedsm/internal/server"
	"genomedsm/internal/shard"
	"genomedsm/internal/swar"
)

// benchCtx returns an experiment context sized for the Go benchmark
// harness: heavily scaled inputs, trimmed grids, output discarded.
func benchCtx() *experiments.Ctx {
	ctx := experiments.New(io.Discard, 100)
	ctx.Quick = true
	return ctx
}

// runExperiment benchmarks one paper experiment end to end.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := benchCtx().Run(name); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper table/figure: the benchmark regenerates the
// experiment on micro-scaled inputs; cmd/benchtables regenerates the same
// experiments at presentation scale.

func BenchmarkTable1Heuristic(b *testing.B)       { runExperiment(b, "table1") }
func BenchmarkFig9Speedups(b *testing.B)          { runExperiment(b, "fig9") }
func BenchmarkFig10Breakdown(b *testing.B)        { runExperiment(b, "fig10") }
func BenchmarkTable2BlastComparison(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3BlockingSweep(b *testing.B)   { runExperiment(b, "table3") }
func BenchmarkTable4Blocked(b *testing.B)         { runExperiment(b, "table4") }
func BenchmarkFig13BlockVsNoBlock(b *testing.B)   { runExperiment(b, "fig13") }
func BenchmarkFig14DotPlot(b *testing.B)          { runExperiment(b, "fig14") }
func BenchmarkFig15Phase2(b *testing.B)           { runExperiment(b, "fig15") }
func BenchmarkFig16GlobalAlign(b *testing.B)      { runExperiment(b, "fig16") }
func BenchmarkFig18Preprocess(b *testing.B)       { runExperiment(b, "fig18") }
func BenchmarkFig19BandSchemes(b *testing.B)      { runExperiment(b, "fig19") }
func BenchmarkFig20IOModes(b *testing.B)          { runExperiment(b, "fig20") }
func BenchmarkSec6ReverseRetrieval(b *testing.B)  { runExperiment(b, "sec6") }
func BenchmarkTables567Example(b *testing.B)      { runExperiment(b, "tables567") }
func BenchmarkAblations(b *testing.B)             { runExperiment(b, "ablations") }

// Kernel micro-benchmarks: cost per dynamic-programming cell for the
// exact and the heuristic recurrences (the constants behind every table).

func benchPair(n int) (bio.Sequence, bio.Sequence) {
	g := bio.NewGenerator(99)
	s := g.Random(n)
	return s, g.MutatedCopy(s, bio.DefaultMutationModel())
}

// reportCells reports throughput in DP cells per second, the unit the
// benchdiff regression harness tracks. cells is the number of matrix
// cells computed per benchmark iteration. (SetBytes with the same count
// also makes MB/s read as Mcells/s, kept for go-test familiarity.) It
// also turns on the allocs/op column, which pins the buffer-reuse work
// in the kernels and the wavefront strategies.
func reportCells(b *testing.B, cells int64) {
	b.Helper()
	b.ReportAllocs()
	b.SetBytes(cells)
	b.Cleanup(func() {
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(cells)*float64(b.N)/s, "cells/s")
		}
	})
}

func BenchmarkKernelExactScan(b *testing.B) {
	s, t := benchPair(1000)
	reportCells(b, int64(s.Len())*int64(t.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// ForceScalar keeps this benchmark the scalar denominator the
		// striped kernels are measured against (and the oracle they are
		// tested against); KernelStripedScan times the fast path.
		if _, err := align.Scan(s, t, bio.DefaultScoring(), align.ScanOptions{ForceScalar: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelHeuristicScan(b *testing.B) {
	s, t := benchPair(1000)
	reportCells(b, int64(s.Len())*int64(t.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.Scan(s, t, bio.DefaultScoring(),
			heuristics.Params{Open: 12, Close: 12, MinScore: 30}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelColumnScan(b *testing.B) {
	s, t := benchPair(1000)
	reportCells(b, int64(s.Len())*int64(t.Len()))
	// A nil visit makes ColumnScan return without scanning (nothing
	// would observe the columns); the no-op keeps the kernel honest.
	visit := func(j int, col []int32) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := align.ColumnScan(s, t, bio.DefaultScoring(), visit); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelGotoh(b *testing.B) {
	s, t := benchPair(500)
	sc := align.AffineScoring{Match: 1, Mismatch: -1, GapOpen: -3, GapExtend: -1}
	var al align.AffineAligner // reused layer matrices: steady-state allocs only
	reportCells(b, int64(s.Len())*int64(t.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := al.BestLocalAffine(s, t, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelStepRow times the row kernel alone — two resident rows,
// no queue, no allocation — isolating the per-cell transition cost from
// Scan's setup and candidate handling.
func BenchmarkKernelStepRow(b *testing.B) {
	s, t := benchPair(1000)
	kern, err := heuristics.NewKernel(s, t, bio.DefaultScoring(),
		heuristics.Params{Open: 12, Close: 12, MinScore: 30})
	if err != nil {
		b.Fatal(err)
	}
	m, n := s.Len(), t.Len()
	prev := make([]heuristics.Cell, n+1)
	cur := make([]heuristics.Cell, n+1)
	reportCells(b, int64(m)*int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for x := range prev {
			prev[x] = heuristics.Cell{}
		}
		for r := 1; r <= m; r++ {
			cur[0] = heuristics.Cell{}
			kern.StepRow(prev, cur, r, 1, nil)
			prev, cur = cur, prev
		}
	}
}

// benchBatch returns a query plus count same-length random targets for
// the inter-sequence kernels: random data keeps every int8 lane far from
// the saturation cap, so the benchmark times the pure packed path.
func benchBatch(n, count int) (bio.Sequence, []bio.Sequence) {
	g := bio.NewGenerator(77)
	q := g.Random(n)
	targets := make([]bio.Sequence, count)
	for i := range targets {
		targets[i] = g.Random(n)
	}
	return q, targets
}

// BenchmarkKernelSWARScan times the 8-lane int8 inter-sequence kernel on
// a full lane group: 8 pairwise comparisons per pass, 8 DP cells per
// packed word. The acceptance bar for this kernel is ≥ 2× the scalar
// KernelExactScan cells/s.
func BenchmarkKernelSWARScan(b *testing.B) {
	q, targets := benchBatch(1000, 8)
	var al swar.Aligner
	sc := bio.DefaultScoring()
	reportCells(b, int64(len(targets))*int64(q.Len())*int64(q.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := al.Scan8(q, targets, sc); !ok {
			b.Fatal("Scan8 rejected default scoring")
		}
	}
}

// BenchmarkKernelSWARScan16 times the 4-lane int16 fallback kernel.
func BenchmarkKernelSWARScan16(b *testing.B) {
	q, targets := benchBatch(1000, 4)
	var al swar.Aligner
	sc := bio.DefaultScoring()
	reportCells(b, int64(len(targets))*int64(q.Len())*int64(q.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := al.Scan16(q, targets, sc); !ok {
			b.Fatal("Scan16 rejected default scoring")
		}
	}
}

// benchRandomPair returns two independent random sequences: unrelated
// data keeps local scores far below the int8 cap, so the striped
// benchmarks time the pure packed path with no fallback.
func benchRandomPair(n int) (bio.Sequence, bio.Sequence) {
	g := bio.NewGenerator(77)
	return g.Random(n), g.Random(n)
}

// BenchmarkKernelStripedScan times the striped intra-sequence int8
// kernel on a single pair — the Farrar-layout counterpart of the
// inter-sequence SWARScan, and the fast path behind align.Scan. The
// acceptance bar is ≥ 2× the scalar KernelExactScan cells/s.
func BenchmarkKernelStripedScan(b *testing.B) {
	s, t := benchRandomPair(1000)
	var al swar.Aligner
	sc := bio.DefaultScoring()
	reportCells(b, int64(s.Len())*int64(t.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := al.StripedScan8(s, t, sc); !ok {
			b.Fatal("StripedScan8 saturated on random data")
		}
	}
}

// BenchmarkKernelStripedScan16 times the 4-lane int16 striped fallback.
func BenchmarkKernelStripedScan16(b *testing.B) {
	s, t := benchRandomPair(1000)
	var al swar.Aligner
	sc := bio.DefaultScoring()
	reportCells(b, int64(s.Len())*int64(t.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := al.StripedScan16(s, t, sc); !ok {
			b.Fatal("StripedScan16 saturated on random data")
		}
	}
}

// BenchmarkSearchDatabase times the full multicore database scan: lane
// batching, the worker pool over all host cores, and the top-K merge.
func BenchmarkSearchDatabase(b *testing.B) {
	g := bio.NewGenerator(88)
	q := g.Random(1000)
	var db []bio.Record
	cells := int64(0)
	for i := 0; i < 64; i++ {
		t := g.Random(500 + i*17%1000)
		db = append(db, bio.Record{ID: fmt.Sprintf("r%d", i), Seq: t})
		cells += int64(q.Len()) * int64(t.Len())
	}
	reportCells(b, cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Run(q, db, search.Options{NoEndpoints: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchUniformDB is the BenchmarkSearchDatabase workload, shared by the
// dispatch-mode variants so their cells/s numbers are comparable.
func benchUniformDB() (bio.Sequence, []bio.Record, int64) {
	g := bio.NewGenerator(88)
	q := g.Random(1000)
	var db []bio.Record
	cells := int64(0)
	for i := 0; i < 64; i++ {
		t := g.Random(500 + i*17%1000)
		db = append(db, bio.Record{ID: fmt.Sprintf("r%d", i), Seq: t})
		cells += int64(q.Len()) * int64(t.Len())
	}
	return q, db, cells
}

// benchSearch runs one search benchmark over a prebuilt workload with a
// warmup pass outside the timer, so one-time calibration (auto mode
// probes the kernel families on first use) never lands in the measured
// window.
func benchSearch(b *testing.B, q bio.Sequence, db []bio.Record, cells int64, opt search.Options) {
	b.Helper()
	if _, err := search.Run(q, db, opt); err != nil {
		b.Fatal(err)
	}
	reportCells(b, cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Run(q, db, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchDatabaseDispatch / ...Fixed time the uniform database
// under calibrated auto routing versus the legacy fixed thresholds.
// ci.sh gates auto at ≥ 1.0× fixed: on a uniform workload the cost
// model must pick the same int8 word-pass route, so any gap is routing
// overhead.
func BenchmarkSearchDatabaseDispatch(b *testing.B) {
	q, db, cells := benchUniformDB()
	benchSearch(b, q, db, cells, search.Options{NoEndpoints: true, Dispatch: "auto"})
}

func BenchmarkSearchDatabaseFixed(b *testing.B) {
	q, db, cells := benchUniformDB()
	benchSearch(b, q, db, cells, search.Options{NoEndpoints: true, Dispatch: "fixed"})
}

// BenchmarkSearchDatabaseSharded times the uniform database scan
// scattered across a 4-shard in-process cluster (scatter, per-shard
// scan, floor gossip, merge). ci.sh gates it against
// BenchmarkSearchDatabase: the distribution layer must hold parity with
// a single-node scan on one host, since its wins come from adding
// hosts, not from overhead.
func BenchmarkSearchDatabaseSharded(b *testing.B) {
	q, recs, cells := benchUniformDB()
	db := search.NewDB(recs)
	c, err := shard.New(db, shard.Options{Shards: 4, Lease: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	opt := search.Options{NoEndpoints: true}
	if _, err := c.Search(context.Background(), q, opt); err != nil {
		b.Fatal(err)
	}
	reportCells(b, cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Search(context.Background(), q, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMixedDB builds the workload adaptive dispatch exists for: two
// dozen long planted homologs whose scores blow past the int8 clean cap
// (every narrow scan of them is a doomed pass plus an int16 retry), and
// a long tail of short noise records that can never saturate (length ×
// match stays under the cap) where the int8 word-pass is unbeatable. No
// single fixed route wins both halves: the int8 ladder pays the doomed
// pass on every homolog group, forced int16 halves throughput on the
// noise, and auto learns the saturation rate and splits the routes.
func benchMixedDB() (bio.Sequence, []bio.Record, int64) {
	g := bio.NewGenerator(88)
	q := g.Random(1000)
	var db []bio.Record
	cells := int64(0)
	add := func(id string, t bio.Sequence) {
		db = append(db, bio.Record{ID: id, Seq: t})
		cells += int64(q.Len()) * int64(t.Len())
	}
	for i := 0; i < 16; i++ {
		pad := g.Random(250 + i*7)
		add(fmt.Sprintf("hom%d", i), append(pad.Clone(), g.MutatedCopy(q, bio.DefaultMutationModel())...))
	}
	for i := 0; i < 360; i++ {
		add(fmt.Sprintf("r%d", i), g.Random(60+i*67%68)) // 60..127: below the int8 cap
	}
	return q, db, cells
}

func BenchmarkSearchDatabaseMixed(b *testing.B) {
	q, db, cells := benchMixedDB()
	benchSearch(b, q, db, cells, search.Options{NoEndpoints: true, Dispatch: "auto"})
}

func BenchmarkSearchDatabaseMixedFixed(b *testing.B) {
	q, db, cells := benchMixedDB()
	benchSearch(b, q, db, cells, search.Options{NoEndpoints: true, Dispatch: "fixed"})
}

// BenchmarkSearchDatabaseMixedLanes16 is the other single-route
// baseline on the mixed workload: every group forced down the int16
// word-pass (4-lane subgroups), the right call for the homologs and a
// ~2× loss on the short noise.
func BenchmarkSearchDatabaseMixedLanes16(b *testing.B) {
	q, db, cells := benchMixedDB()
	r := dispatch.New(dispatch.ModeAuto, nil)
	r.ForceGroup = func(int, []int) (dispatch.GroupRoute, bool) { return dispatch.GroupInter16, true }
	benchSearch(b, q, db, cells, search.Options{NoEndpoints: true, Router: r})
}

// benchSkewedDB builds the skewed search workload the pruning gate is
// measured on: a handful of planted full-query homologs padded out to be
// the LONGEST records, followed by a long tail of shorter noise. The
// length-sorted scan order therefore meets the planted hits first, the
// top-K floor ratchets to the query's identity score immediately, and
// every noise record is either skipped by the O(1) record bound or
// abandoned soon after its first possible abandon row.
func benchSkewedDB() (bio.Sequence, []bio.Record, int64) {
	g := bio.NewGenerator(88)
	q := g.Random(1000)
	var db []bio.Record
	cells := int64(0)
	add := func(id string, t bio.Sequence) {
		db = append(db, bio.Record{ID: id, Seq: t})
		cells += int64(q.Len()) * int64(t.Len())
	}
	for i := 0; i < 12; i++ {
		pad := g.Random(450 + i*4)
		add(fmt.Sprintf("hom%d", i), append(pad.Clone(), q...))
	}
	for i := 0; i < 150; i++ {
		add(fmt.Sprintf("r%d", i), g.Random(300+i*1000/150))
	}
	return q, db, cells
}

// BenchmarkSearchDatabaseSkewed is the unpruned denominator of the
// pruning gate: the identical skewed database scanned end to end.
func BenchmarkSearchDatabaseSkewed(b *testing.B) {
	q, db, cells := benchSkewedDB()
	reportCells(b, cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Run(q, db, search.Options{NoEndpoints: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchDatabaseSkewedFixed is the fixed-route baseline of the
// skewed workload; ci.sh gates the default (auto-dispatched) skewed
// scan at ≥ 1.0× this.
func BenchmarkSearchDatabaseSkewedFixed(b *testing.B) {
	q, db, cells := benchSkewedDB()
	benchSearch(b, q, db, cells, search.Options{NoEndpoints: true, Dispatch: "fixed"})
}

// BenchmarkSearchDatabasePruned runs the same skewed database with the
// three-stage exact pruning pipeline on. ci.sh gates this at ≥ 1.5× the
// cells/s of both SearchDatabaseSkewed and SearchDatabase; the cells
// denominator is the full matrix so the ratio reads as true end-to-end
// speedup, not work actually performed.
func BenchmarkSearchDatabasePruned(b *testing.B) {
	q, db, cells := benchSkewedDB()
	reportCells(b, cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Run(q, db, search.Options{NoEndpoints: true, Prune: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelFullMatrix(b *testing.B) {
	s, t := benchPair(500)
	reportCells(b, int64(s.Len())*int64(t.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := align.BestLocal(s, t, bio.DefaultScoring()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelReverseRetrieve(b *testing.B) {
	s, t := benchPair(1000)
	sc := bio.DefaultScoring()
	r, err := align.Scan(s, t, sc, align.ScanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var rt align.Retriever // reused sparse arenas: steady-state allocs only
	reportCells(b, int64(s.Len())*int64(t.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rt.ReverseRetrieve(s, t, sc, r.BestI, r.BestJ, r.BestScore); err != nil {
			b.Fatal(err)
		}
	}
}

// Resident-service benchmarks: end-to-end HTTP query cost against the
// in-process search server. The workload is deliberately tiny (16-base
// queries, 16 short records) so the per-request fixed costs — HTTP
// round trip, JSON, per-scan setup — dominate the DP work; that is the
// regime the batching path exists for. ci.sh gates
// ServeThroughputBatched at ≥ 1.5× ServeQueryLatency queries/s: one
// POST carrying BatchMax queries shares a single database scan and one
// round trip, so the amortization must show up even on one core.

// benchServeQueries builds the shared serve workload: the HTTP test
// server (resident over a small synthetic database) plus count query
// sequences and the per-query full-matrix cell count.
func benchServeQueries(b *testing.B, count int) (*httptest.Server, []bio.Sequence, int64) {
	b.Helper()
	g := bio.NewGenerator(88)
	var recs []bio.Record
	bases := int64(0)
	for i := 0; i < 16; i++ {
		t := g.Random(40 + i*24%25)
		recs = append(recs, bio.Record{ID: fmt.Sprintf("r%d", i), Seq: t})
		bases += int64(t.Len())
	}
	queries := make([]bio.Sequence, count)
	for i := range queries {
		queries[i] = g.Random(16)
	}
	srv, err := server.New(server.Config{
		DB:      search.NewDB(recs),
		Options: search.Options{TopK: 5, NoEndpoints: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	b.Cleanup(func() {
		hs.Close()
		srv.Shutdown(context.Background())
	})
	return hs, queries, 16 * bases
}

// benchServePost sends one /search POST and fails the benchmark on any
// non-200 answer; the response body must be drained for the keep-alive
// connection to be reused.
func benchServePost(b *testing.B, c *http.Client, url string, body []byte) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("search answered %d", resp.StatusCode)
	}
}

// reportQueries adds the queries/s metric the serve gate reads,
// alongside reportCells' cells/s for the benchdiff snapshot.
func reportQueries(b *testing.B, perIter int) {
	b.Cleanup(func() {
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(perIter)*float64(b.N)/s, "queries/s")
		}
	})
}

// BenchmarkServeQueryLatency times the sequential client: one query per
// POST, a full HTTP round trip and a private database scan each.
func BenchmarkServeQueryLatency(b *testing.B) {
	hs, queries, cellsPerQuery := benchServeQueries(b, 1)
	body, err := json.Marshal(map[string]any{"query": queries[0].String(), "top_k": 5})
	if err != nil {
		b.Fatal(err)
	}
	c := hs.Client()
	url := hs.URL + "/search"
	benchServePost(b, c, url, body) // warmup: dispatch calibration, conn setup
	reportCells(b, cellsPerQuery)
	reportQueries(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchServePost(b, c, url, body)
	}
}

// BenchmarkServeThroughputBatched times the batched client: 16 queries
// in one POST, which the server answers with one shared scan.
func BenchmarkServeThroughputBatched(b *testing.B) {
	const batch = 16
	hs, queries, cellsPerQuery := benchServeQueries(b, batch)
	qs := make([]map[string]any, batch)
	for i, q := range queries {
		qs[i] = map[string]any{"seq": q.String(), "top_k": 5}
	}
	body, err := json.Marshal(map[string]any{"queries": qs})
	if err != nil {
		b.Fatal(err)
	}
	c := hs.Client()
	url := hs.URL + "/search"
	benchServePost(b, c, url, body)
	reportCells(b, int64(batch)*cellsPerQuery)
	reportQueries(b, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchServePost(b, c, url, body)
	}
}

func BenchmarkCompareBlocked8(b *testing.B) {
	g := bio.NewGenerator(123)
	pair, err := g.HomologousPair(1500, bio.DefaultHomologyModel(1500))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(pair.S, pair.T, Options{
			Strategy: StrategyHeuristicBlock, Processors: 8,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPackDB is a database sized so pack load cost is visible: 256
// records around 1kb each, with the default 11-mer prefilter index
// embedded (the index decode is most of a v1 load).
func benchPackDB() (bio.Sequence, []bio.Record, int64) {
	g := bio.NewGenerator(88)
	q := g.Random(1000)
	var db []bio.Record
	cells := int64(0)
	for i := 0; i < 256; i++ {
		t := g.Random(500 + i*37%1000)
		db = append(db, bio.Record{ID: fmt.Sprintf("r%d", i), Seq: t})
		cells += int64(q.Len()) * int64(t.Len())
	}
	return q, db, cells
}

// benchPackFile writes the benchPackDB database as one pack file in the
// given format and returns its path.
func benchPackFile(b *testing.B, format string) string {
	b.Helper()
	_, recs, _ := benchPackDB()
	p, err := dbpack.Build(recs, 11)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench-"+format+".pack")
	if format == "v2" {
		err = dbpack.WriteFileV2(path, p)
	} else {
		err = dbpack.WriteFile(path, p)
	}
	if err != nil {
		b.Fatal(err)
	}
	return path
}

// benchPackColdStart times open → first-query-ready: load the pack,
// answer one short query through the full fast path (lane layout
// included), close. This is the serve-restart metric the v2 format
// exists for; ci.sh gates v2 mmap at ≥ 2× the v1 decode.
func benchPackColdStart(b *testing.B, format string) {
	path := benchPackFile(b, format)
	q := bio.NewGenerator(7).Random(12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := dbpack.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := search.RunCtx(context.Background(), q, p.DB, search.Options{NoEndpoints: true, Dispatch: "fixed"}); err != nil {
			b.Fatal(err)
		}
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPackColdStartV1(b *testing.B) { benchPackColdStart(b, "v1") }
func BenchmarkPackColdStartV2(b *testing.B) { benchPackColdStart(b, "v2") }

// BenchmarkSearchDatabasePackV2 scans through an mmap-opened v2 pack:
// the kernels read lane words straight out of the mapped section.
// Comparable against BenchmarkSearchDatabase8 tier numbers via cells/s.
func BenchmarkSearchDatabasePackV2(b *testing.B) {
	path := benchPackFile(b, "v2")
	p, err := dbpack.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	q, _, cells := benchPackDB()
	opt := search.Options{NoEndpoints: true}
	if _, err := search.RunCtx(context.Background(), q, p.DB, opt); err != nil {
		b.Fatal(err)
	}
	reportCells(b, cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.RunCtx(context.Background(), q, p.DB, opt); err != nil {
			b.Fatal(err)
		}
	}
}
