package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"genomedsm/internal/bio"
	"genomedsm/internal/dbpack"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/search"
	"genomedsm/internal/server"
	"genomedsm/internal/shard"
)

// topK is the CLI default the serve workloads scan with.
const topK = 10

// serveSpec shapes a serve_* workload.
type serveSpec struct {
	shards    int
	batch     int // queries per POST; 1 sends the single-query form
	prefilter bool
	verifyMax int // answers checked per run (a seeded sample)
	// build returns the database records and the i-th query generator.
	build func(seed int64) ([]bio.Record, func(i int) bio.Sequence)
}

func runServeNoise(rc *runCtx) (*outcome, error) {
	return runServe(rc, serveSpec{
		batch: 1, verifyMax: 40,
		build: func(seed int64) ([]bio.Record, func(int) bio.Sequence) {
			return noiseDB(seed, 96, 60, 1000), func(i int) bio.Sequence { return randomQuery(seed, i, 1000) }
		},
	})
}

// homologSpec plants 8 families of 11 copies (more than topK, so the
// top-K floor rises above noise) of a 300-base gene in 450–750-base
// records, plus a noise tail of 32 records.
var homologSpec = familySpec{Families: 8, Copies: 11, GeneLen: 300, PadLo: 450, PadHi: 750, Noise: 32, NoiseLo: 60, NoiseHi: 600}

func runServeHomolog(rc *runCtx) (*outcome, error) {
	return runServe(rc, serveSpec{
		shards: 2, batch: 3, prefilter: true, verifyMax: 40,
		build: func(seed int64) ([]bio.Record, func(int) bio.Sequence) {
			recs, genes := familyDB(seed, homologSpec)
			return recs, func(i int) bio.Sequence { return familyQuery(seed, i, genes) }
		},
	})
}

// serveOptions is the server-wide scan configuration of `genomedsm serve`
// with its defaults: +1/−1/−2 scoring, auto dispatch, prune on, prefilter
// off, endpoints on.
func serveOptions() search.Options {
	return search.Options{Scoring: bio.DefaultScoring(), TopK: topK, Prune: true, Dispatch: "auto"}
}

// writePack packs recs as `genomedsm index` does (v2, 11-mer word index).
func writePack(dir string, recs []bio.Record) (string, error) {
	p, err := dbpack.Build(recs, 11)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "db.pack")
	return path, dbpack.WriteFileV2(path, p)
}

// service is one resident server behind a loopback HTTP listener.
type service struct {
	pack *dbpack.Pack
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if e := s.hs.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-s.done; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	if e := s.pack.Close(); err == nil {
		err = e
	}
	return err
}

var httpClient = &http.Client{
	Timeout:   2 * time.Minute,
	Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
}

// setupStats gathers the traced set-up's layer numbers.
type setupStats struct {
	calibrate, open, openAllocMB, openAllocs []float64
}

// startService runs one set-up: dbpack.Open, server.New (which calibrates
// dispatch and starts the shard cluster), listen, and the first 200 from
// /healthz. It returns the set-up seconds. Traced, the calibration runs
// in its own span just before server.New, which then finds it done.
func startService(rc *runCtx, path string, spec serveSpec, rep int, ss *setupStats) (*service, float64, error) {
	resetCalibration()
	liveHeap() // collect the previous set-up's garbage outside the timing
	span := func(parent int, name string, f func() error) error { return f() }
	root := 0
	if rc.traced {
		root = rc.tr.begin(-1-rep, 0, "setup")
		span = func(parent int, name string, f func() error) error {
			_, err := rc.tr.do(-1-rep, parent, name, f)
			return err
		}
	}
	start := time.Now()
	svc := &service{done: make(chan error, 1)}
	var m0, m1 runtime.MemStats
	err := span(root, "dbpack.open", func() (err error) {
		if rc.traced {
			m0 = memNow()
		}
		t := time.Now()
		svc.pack, err = dbpack.Open(path)
		if rc.traced {
			ss.open = append(ss.open, msSince(t))
			m1 = memNow()
		}
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	if rc.traced {
		ss.openAllocMB = append(ss.openAllocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		ss.openAllocs = append(ss.openAllocs, float64(m1.Mallocs-m0.Mallocs))
		_ = span(root, "dispatch.calibrate", func() error {
			t := time.Now()
			dispatch.Host()
			ss.calibrate = append(ss.calibrate, msSince(t))
			return nil
		})
	}
	err = span(root, "server.new", func() (err error) {
		svc.srv, err = server.New(server.Config{DB: svc.pack.DB, Options: serveOptions(), Shards: spec.shards, Pack: &svc.pack.Info})
		return err
	})
	if err != nil {
		svc.pack.Close()
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.srv.Shutdown(context.Background())
		svc.pack.Close()
		return nil, 0, err
	}
	svc.url = "http://" + ln.Addr().String()
	svc.hs = &http.Server{Handler: svc.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { svc.done <- svc.hs.Serve(ln) }()
	err = span(root, "healthz", func() error {
		for t := time.Now(); ; time.Sleep(time.Millisecond) {
			status, _, err := get(svc.url + "/healthz")
			if err == nil && status == http.StatusOK {
				return nil
			}
			if time.Since(t) > 10*time.Second {
				return fmt.Errorf("healthz: status %d, %v", status, err)
			}
		}
	})
	secs := time.Since(start).Seconds()
	if rc.traced {
		rc.tr.end(root)
	}
	if err != nil {
		svc.close()
		return nil, 0, err
	}
	return svc, secs, nil
}

func get(url string) (int, []byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func post(url string, body []byte) (int, []byte, error) {
	resp, err := httpClient.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// answer is one answered query kept for verification.
type answer struct {
	qi    int // query index: the input is regenerated from it
	hits  []server.HitJSON
	cells int64 // the server's reported Σ|q|·|record|
	prune *server.PruneJSON
}

// reply is one POST's outcome.
type reply struct {
	ms      float64
	answers []answer
	failed  int
	cells   int64 // full-matrix cells of the answered queries
	bytes   int
}

// doPost sends POST number id (queries id·batch … id·batch+batch−1) and
// classifies every query's outcome.
func doPost(url string, spec serveSpec, query func(int) bio.Sequence, dbBases int64, id int) reply {
	qs := make([]bio.Sequence, spec.batch)
	var req server.RequestJSON
	for k := range qs {
		qs[k] = query(id*spec.batch + k)
	}
	if spec.batch == 1 {
		req.Query = qs[0].String()
	} else {
		for k, q := range qs {
			req.Queries = append(req.Queries, server.QueryJSON{Seq: q.String(), Tag: fmt.Sprint(k)})
		}
	}
	if spec.prefilter {
		on := true
		req.Prefilter = &on
	}
	body, err := json.Marshal(req)
	if err != nil {
		return reply{failed: spec.batch}
	}
	t := time.Now()
	status, b, err := post(url+"/search", body)
	out := reply{ms: msSince(t), bytes: len(b)}
	var results []server.ResultJSON
	if err == nil && status == http.StatusOK {
		if spec.batch == 1 {
			var r server.ResultJSON
			err = json.Unmarshal(b, &r)
			results = []server.ResultJSON{r}
		} else {
			var r server.ResponseJSON
			err = json.Unmarshal(b, &r)
			results = r.Results
		}
		if err == nil && len(results) != len(qs) {
			err = fmt.Errorf("%d results for %d queries", len(results), len(qs))
		}
	}
	for k, q := range qs {
		qerr := ""
		if k < len(results) {
			qerr = results[k].Error
		}
		if queryFailed(err, status, qerr) {
			out.failed++
			continue
		}
		r := results[k]
		out.answers = append(out.answers, answer{qi: id*spec.batch + k, hits: r.Hits, cells: r.Cells, prune: r.Prune})
		out.cells += fullCells(len(q), dbBases)
	}
	return out
}

// closedLoop runs n clients, each sending its next request only after the
// previous one completed, until the deadline; ids are handed out in order
// from first. It returns once the last in-flight request has ended.
func closedLoop(n int, deadline time.Time, first int, do func(id int) reply) []reply {
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var out []reply
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := do(int(next.Add(1) - 1))
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

func statsz(url string) (server.StatszJSON, error) {
	var st server.StatszJSON
	status, b, err := get(url + "/statsz")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("statsz: status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

func runServe(rc *runCtx, spec serveSpec) (*outcome, error) {
	recs, query := spec.build(rc.seed)
	path, err := writePack(rc.dir, recs)
	if err != nil {
		return nil, err
	}
	var dbBases int64
	for _, r := range recs {
		dbBases += int64(len(r.Seq))
	}
	rc.log("database %d records, %d bases; %d queries of %d bases per POST", len(recs), dbBases, spec.batch, len(query(0)))
	recs = nil // the server holds only what it loaded from the pack

	out := &outcome{}
	var replies []reply
	if rc.traced {
		ss := &setupStats{}
		var svc *service
		for rep := 0; rep < setupReps; rep++ {
			if svc != nil {
				if err := svc.close(); err != nil {
					return nil, err
				}
			}
			if svc, _, err = startService(rc, path, spec, rep, ss); err != nil {
				return nil, err
			}
		}
		defer svc.close()
		do := func(id int) reply { return doPost(svc.url, spec, query, dbBases, id) }
		if replies, out.layers, err = traceServe(rc, svc, spec, query, do, ss); err != nil {
			return nil, err
		}
		for _, r := range replies {
			out.load.request(r.ms, spec.batch, r.failed, r.cells)
		}
	} else {
		var svc *service
		err := lives(rc, out, func() (func() error, float64, error) {
			var secs float64
			var err error
			svc, secs, err = startService(rc, path, spec, 0, nil)
			if err != nil {
				return nil, 0, err
			}
			return svc.close, secs, nil
		}, func(deadline time.Time) error {
			rs := closedLoop(clients, deadline, len(replies), func(id int) reply { return doPost(svc.url, spec, query, dbBases, id) })
			for _, r := range rs {
				out.load.request(r.ms, spec.batch, r.failed, r.cells)
			}
			replies = append(replies, rs...)
			rc.log("routes group=%v pair=%v", svc.srv.Router().GroupCounts(), svc.srv.Router().PairCounts())
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var answers []answer
	for _, r := range replies {
		answers = append(answers, r.answers...)
	}

	// Verify a seeded sample of the answers against an independent
	// single-node unpruned scan on the fixed route over a database built
	// in memory from regenerated records.
	recs, _ = spec.build(rc.seed)
	ref := search.NewDB(recs)
	sort.Slice(answers, func(i, j int) bool { return answers[i].qi < answers[j].qi })
	for _, i := range sample(rc.seed, len(answers), spec.verifyMax) {
		a := answers[i]
		q := query(a.qi)
		want, err := search.RunCtx(context.Background(), q, ref, search.Options{TopK: topK, Dispatch: "fixed"})
		if err != nil {
			return nil, err
		}
		out.verified++
		if msg := checkAnswer(a, want, len(q), ref.TotalBases()); msg != "" {
			rc.log("MISMATCH query %d: %s", a.qi, msg)
			out.mismatches++
			out.load.failed++
			out.load.cells -= fullCells(len(q), ref.TotalBases())
		}
	}
	return out, nil
}

// compareHits checks a served top K against the reference: hits, scores,
// coordinates and tie-break order must be identical.
func compareHits(got []server.HitJSON, want []search.Hit) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d hits, reference %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Index != w.Index || g.ID != w.ID || g.Score != w.Score ||
			g.QBegin != w.QBegin || g.QEnd != w.QEnd || g.TBegin != w.TBegin || g.TEnd != w.TEnd {
			return fmt.Sprintf("hit %d: got %+v, reference %+v", i, g, w)
		}
	}
	return ""
}

// traceServe is the traced mode of a serve workload. A first untraced
// phase of a quarter of the run sends requests from one client for the
// tracing-overhead baseline. The traced phase then sends one request at a
// time and replays its batch one layer down: through a shard cluster of
// the same shape (sharded only), then through the single-node driver and
// the layers below it (driverTrace.replay).
func traceServe(rc *runCtx, svc *service, spec serveSpec, query func(int) bio.Sequence, do func(int) reply, ss *setupStats) ([]reply, map[string]float64, error) {
	ctx := context.Background()
	tr := rc.tr
	start := time.Now()
	deadline := rc.deadline(start)
	st0, err := statsz(svc.url)
	if err != nil {
		return nil, nil, err
	}
	router := svc.srv.Router()
	g0, p0 := router.GroupCounts(), router.PairCounts()
	var sh0 shard.Stats
	if s := svc.srv.ShardStats(); s != nil {
		sh0 = *s
	}

	replies := closedLoop(1, start.Add(rc.seconds/4), 0, do)
	var untraced []float64
	for _, r := range replies {
		untraced = append(untraced, r.ms)
	}

	db := svc.pack.DB
	opt := serveOptions()
	opt.Prefilter = spec.prefilter
	opt.Router = dispatch.New(dispatch.ModeAuto, dispatch.Host())
	noEnd := opt
	noEnd.NoEndpoints = true
	var cl *shard.Cluster
	if spec.shards >= 2 {
		if cl, err = shard.New(db, shard.Options{Shards: spec.shards, Lease: 30 * time.Second, Search: opt}); err != nil {
			return nil, nil, err
		}
		defer cl.Close()
	}
	var (
		d                                   driverTrace
		httpMS, overMS, serverRatio, respKB []float64
		clusterRatio, clusterScanRatio      []float64
	)
	for id := len(replies); time.Now().Before(deadline); id++ {
		op := id + 1
		root := tr.begin(op, 0, "op")
		httpID := tr.begin(op, root, "server.http")
		r := do(id)
		httpDur := tr.end(httpID)
		replies = append(replies, r)
		if r.failed > 0 {
			tr.end(root)
			continue
		}
		qs := make([]bio.Sequence, spec.batch)
		bq := make([]search.BatchQuery, spec.batch)
		for k := range qs {
			qs[k] = query(id*spec.batch + k)
			bq[k] = search.BatchQuery{Seq: qs[k]}
		}

		driverParent := httpID
		var clusterDur, clusterScanDur time.Duration
		if cl != nil {
			driverParent = tr.begin(op, httpID, "shard.cluster")
			_, err := cl.SearchBatch(ctx, bq, opt)
			clusterDur = tr.end(driverParent)
			if err != nil {
				return nil, nil, err
			}
			if clusterScanDur, err = tr.do(op, root, "shard.cluster_scan", func() error {
				_, err := cl.SearchBatch(ctx, bq, noEnd)
				return err
			}); err != nil {
				return nil, nil, err
			}
		}
		driverDur, scanDur, kth, err := d.replay(tr, op, driverParent, root, db, qs, opt)
		if err != nil {
			return nil, nil, err
		}
		tr.end(root)

		for k, a := range r.answers {
			seed := -1
			if kth != nil {
				seed = kth[k]
			}
			d.prune(a.prune, a.cells, seed)
		}
		below := driverDur
		if cl != nil {
			below = clusterDur
			clusterRatio = append(clusterRatio, float64(clusterDur)/float64(driverDur))
			clusterScanRatio = append(clusterScanRatio, float64(clusterScanDur)/float64(scanDur))
		}
		httpMS = append(httpMS, float64(httpDur)/1e6)
		overMS = append(overMS, float64(httpDur-below)/1e6)
		serverRatio = append(serverRatio, float64(httpDur)/float64(below))
		respKB = append(respKB, float64(r.bytes)/1e3)
	}
	st1, err := statsz(svc.url)
	if err != nil {
		return nil, nil, err
	}

	L := map[string]float64{}
	setupLayers(L, ss)
	L["dbpack.heap_mb"] = float64(svc.pack.Info.HeapBytes) / 1e6
	L["dbpack.mapped_mb"] = float64(svc.pack.Info.MappedBytes) / 1e6
	routeShares(L, g0, router.GroupCounts(), p0, router.PairCounts())
	d.fill(L)
	L["trace.ops"] = float64(len(httpMS))
	L["server.overhead_ms"] = median(overMS)
	L["server.ratio"] = median(serverRatio)
	L["server.queries_per_scan"] = ratio(float64(st1.Queries-st0.Queries), float64(st1.Batches-st0.Batches))
	L["server.response_kb"] = median(respKB)
	L["server.rejected"] = float64(st1.Rejected - st0.Rejected)
	L["server.cancelled"] = float64(st1.Cancelled - st0.Cancelled)
	if cl != nil {
		sh1 := *svc.srv.ShardStats()
		nq := float64(sh1.Queries - sh0.Queries)
		L["shard.ratio"] = median(clusterRatio)
		L["shard.scan_ratio"] = median(clusterScanRatio)
		L["shard.retries_per_query"] = ratio(float64(sh1.Retries-sh0.Retries), nq)
		L["shard.gossip_per_query"] = ratio(float64(sh1.GossipUpdates-sh0.GossipUpdates), nq)
		L["shard.broadcasts_per_query"] = ratio(float64(sh1.FloorBroadcasts-sh0.FloorBroadcasts), nq)
		L["shard.reassigns"] = float64(sh1.Reassigns - sh0.Reassigns)
		var sum, top float64
		for _, h := range sh1.Shards {
			sum += h.AvgLatencyMS
			top = max(top, h.AvgLatencyMS)
		}
		L["shard.imbalance"] = ratio(top, sum/float64(len(sh1.Shards)))
	}
	traceOverhead(L, httpMS, untraced)
	return replies, L, nil
}

// setupLayers fills the layer metrics measured during the traced set-ups.
func setupLayers(L map[string]float64, ss *setupStats) {
	L["dispatch.calibrate_ms"] = median(ss.calibrate)
	if len(ss.open) > 0 {
		L["dbpack.open_ms"] = median(ss.open)
		L["dbpack.open_alloc_mb"] = median(ss.openAllocMB)
		L["dbpack.open_allocs"] = median(ss.openAllocs)
	}
}

// traceOverhead compares the traced top-level call with the untraced
// calls of the same invocation.
func traceOverhead(L map[string]float64, traced, untraced []float64) {
	t, u := median(traced), median(untraced)
	L["trace.overhead_ms"] = t - u
	L["trace.overhead_share"] = ratio(t-u, u)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
