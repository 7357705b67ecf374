package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"genomedsm/internal/bio"
	"genomedsm/internal/blast"
	"genomedsm/internal/dbpack"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/search"
)

// testDB builds a deterministic synthetic database with planted
// homologs, mirroring the CLI's synthetic inputs: a shared generator
// seeds both the query and the records, and every 7th record embeds a
// mutated copy of a query slice so the top-K has real signal.
func testDB(t testing.TB, n, recLen, count int) (bio.Sequence, []bio.Record) {
	t.Helper()
	g := bio.NewGenerator(42)
	q := g.Random(n)
	recs := make([]bio.Record, count)
	for i := range recs {
		seq := g.Random(recLen + (i%5)*7)
		if i%7 == 3 {
			m := g.MutatedCopy(q[:min(n, recLen/2)], bio.DefaultMutationModel())
			copy(seq[len(seq)/4:], m)
		}
		recs[i] = bio.Record{ID: fmt.Sprintf("r%03d", i), Seq: seq}
	}
	return q, recs
}

// newTestServer spins up a Server over recs behind an httptest.Server.
func newTestServer(t testing.TB, recs []bio.Record, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	db := search.NewDB(recs)
	if ix := blast.NewDBWordIndex(recs, 11); ix != nil {
		db.SetWordIndex(ix)
	}
	cfg.DB = db
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	})
	return s, hs
}

// inter16Router pins every lane group to the int16 route: two 4-lane
// word-passes per 8-record group.
func inter16Router() *dispatch.Router {
	r := dispatch.New(dispatch.ModeAuto, nil)
	r.ForceGroup = func(int, []int) (dispatch.GroupRoute, bool) { return dispatch.GroupInter16, true }
	return r
}

func postSearch(t testing.TB, url string, req RequestJSON) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, body)
}

// postRaw posts a raw /search body, for payloads RequestJSON cannot
// express.
func postRaw(t testing.TB, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestSearchDifferential is the service-level exactness pin: every HTTP
// answer must be bit-identical — hit set, scores, coordinates,
// tie-breaks, searched/cells accounting — to a direct search.Run with
// the same options, across the kernel, pruning and dispatch grid.
func TestSearchDifferential(t *testing.T) {
	q, recs := testDB(t, 48, 60, 40)

	type pruneCase struct{ prune, prefilter bool }
	pruneCases := []pruneCase{{false, false}, {true, false}, {true, true}}
	// Each route keeps the subtest label of the former lanes × dispatch
	// grid. lanes=0 rows override the dispatch mode per request on an
	// auto server; the other rows scan down the server's own shared
	// router: the fixed int8 ladder (lanes=8), the scalar kernels
	// (lanes=1) and a router forced to the int16 route (lanes=16).
	routes := []struct {
		lanes      int
		dispatches []string
		server     search.Options
	}{
		{0, []string{"auto", "fixed", "scalar"}, search.Options{}},
		{8, []string{""}, search.Options{Dispatch: "fixed"}},
		{16, []string{""}, search.Options{Router: inter16Router()}},
		{1, []string{""}, search.Options{Dispatch: "scalar"}},
	}
	for _, rt := range routes {
		_, hs := newTestServer(t, recs, Config{Options: rt.server})
		for _, disp := range rt.dispatches {
			for _, pc := range pruneCases {
				for _, k := range []int{3, 10} {
					name := fmt.Sprintf("lanes=%d/disp=%s/prune=%v/prefilter=%v/k=%d",
						rt.lanes, disp, pc.prune, pc.prefilter, k)
					t.Run(name, func(t *testing.T) {
						opt := rt.server
						if disp != "" {
							opt.Dispatch = disp
						}
						opt.TopK, opt.Prune, opt.Prefilter = k, pc.prune, pc.prefilter
						want, err := search.Run(q, recs, opt)
						if err != nil {
							t.Fatal(err)
						}
						req := RequestJSON{Query: q.String(), TopK: k, Prune: &opt.Prune, Prefilter: &opt.Prefilter}
						if disp != "" {
							req.Dispatch = &disp
						}
						resp, body := postSearch(t, hs.URL, req)
						if resp.StatusCode != http.StatusOK {
							t.Fatalf("status %d: %s", resp.StatusCode, body)
						}
						var got ResultJSON
						if err := json.Unmarshal(body, &got); err != nil {
							t.Fatalf("bad response %s: %v", body, err)
						}
						if got.Error != "" {
							t.Fatalf("unexpected error %q", got.Error)
						}
						if got.Searched != want.Searched || got.Cells != want.Cells {
							t.Errorf("searched/cells %d/%d, want %d/%d",
								got.Searched, got.Cells, want.Searched, want.Cells)
						}
						if len(got.Hits) != len(want.Hits) {
							t.Fatalf("%d hits, want %d", len(got.Hits), len(want.Hits))
						}
						for i, h := range want.Hits {
							g := got.Hits[i]
							if g.Index != h.Index || g.ID != h.ID || g.Score != h.Score ||
								g.QBegin != h.QBegin || g.QEnd != h.QEnd ||
								g.TBegin != h.TBegin || g.TEnd != h.TEnd {
								t.Errorf("hit %d: %+v, want %+v", i, g, h)
							}
						}
					})
				}
			}
		}
	}
}

// TestBatchedQueries exercises the multi-query form: one POST carrying
// several queries answers each bit-exactly and reports the shared batch.
func TestBatchedQueries(t *testing.T) {
	q, recs := testDB(t, 48, 60, 30)
	g := bio.NewGenerator(7)
	_, hs := newTestServer(t, recs, Config{Options: search.Options{Prune: true}})

	queries := []QueryJSON{
		{Seq: q.String(), Tag: "q0"},
		{Seq: g.Random(32).String(), TopK: 3, Tag: "q1"},
		{Seq: g.Random(64).String(), MinScore: 5, Tag: "q2"},
	}
	resp, body := postSearch(t, hs.URL, RequestJSON{Queries: queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got ResponseJSON
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(got.Results), len(queries))
	}
	for i, qj := range queries {
		r := got.Results[i]
		if r.Tag != qj.Tag {
			t.Errorf("result %d tagged %q, want %q", i, r.Tag, qj.Tag)
		}
		if r.BatchSize < len(queries) {
			t.Errorf("result %d batch size %d, want ≥ %d", i, r.BatchSize, len(queries))
		}
		opt := search.Options{Prune: true, TopK: qj.TopK, MinScore: qj.MinScore}
		want, err := search.Run(bio.MustSequence(qj.Seq), recs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Hits) != len(want.Hits) {
			t.Fatalf("result %d: %d hits, want %d", i, len(r.Hits), len(want.Hits))
		}
		for j, h := range want.Hits {
			if r.Hits[j].Index != h.Index || r.Hits[j].Score != h.Score {
				t.Errorf("result %d hit %d: %+v, want %+v", i, j, r.Hits[j], h)
			}
		}
	}
}

// holdFirstBatch installs the dispatcher hook: the first batch blocks
// until the returned release function runs, so subsequent requests
// deterministically pile up in the admission queue.
func holdFirstBatch(s *Server) (release func()) {
	ch := make(chan struct{})
	s.mu.Lock()
	s.testBatchStart = func() { <-ch }
	s.mu.Unlock()
	return func() { close(ch) }
}

// queueLen reads the admission queue depth.
func queueLen(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// waitFor polls cond until it holds (the dispatcher runs concurrently;
// these transitions complete in microseconds once scheduled).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescing proves concurrent compatible requests share one scan:
// with the dispatcher held on a blocker batch, four queued single-query
// requests are answered from one RunBatch, and each response reports
// the shared batch size.
func TestCoalescing(t *testing.T) {
	q, recs := testDB(t, 64, 60, 30)
	s, hs := newTestServer(t, recs, Config{})
	release := holdFirstBatch(s)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSearch(t, hs.URL, RequestJSON{Query: q[:24].String(), Tag: "blocker"})
	}()
	waitFor(t, "blocker batch to start", func() bool { return s.st.batches.Load() == 1 })

	const followers = 4
	sizes := make([]int, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postSearch(t, hs.URL, RequestJSON{Query: q[:32].String(), Tag: fmt.Sprintf("f%d", i)})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("follower %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var r ResultJSON
			if err := json.Unmarshal(body, &r); err != nil {
				t.Errorf("follower %d: %v", i, err)
				return
			}
			if r.Tag != fmt.Sprintf("f%d", i) {
				t.Errorf("follower %d answered with tag %q", i, r.Tag)
			}
			sizes[i] = r.BatchSize
		}(i)
	}
	waitFor(t, "followers to queue", func() bool { return queueLen(s) == followers })
	release()
	wg.Wait()
	for i, n := range sizes {
		if n != followers {
			t.Errorf("follower %d ran in a batch of %d, want %d (sizes %v)", i, n, followers, sizes)
		}
	}
	if got := s.st.batches.Load(); got != 2 {
		t.Errorf("%d batches for 5 requests, want 2 (blocker + coalesced followers)", got)
	}
}

// TestAdmissionControl pins the overload protocol: with the queue
// bounded at 2 and the dispatcher held busy, the third and later
// requests get 429 immediately, every request gets exactly one answer,
// and the queue never exceeds its cap.
func TestAdmissionControl(t *testing.T) {
	q, recs := testDB(t, 64, 60, 30)
	s, hs := newTestServer(t, recs, Config{MaxQueue: 2})
	release := holdFirstBatch(s)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSearch(t, hs.URL, RequestJSON{Query: q[:24].String()})
	}()
	waitFor(t, "blocker batch to start", func() bool { return s.st.batches.Load() == 1 })

	// Two requests fill the queue...
	queued := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postSearch(t, hs.URL, RequestJSON{Query: q[:24].String()})
			queued <- resp.StatusCode
		}()
	}
	waitFor(t, "queue to fill", func() bool { return queueLen(s) == 2 })
	// ...and every request past the cap is refused synchronously.
	const overflow = 6
	for i := 0; i < overflow; i++ {
		resp, body := postSearch(t, hs.URL, RequestJSON{Query: q[:24].String()})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("overflow request %d: status %d (%s), want 429", i, resp.StatusCode, body)
		}
	}
	release()
	wg.Wait()
	close(queued)
	for status := range queued {
		if status != http.StatusOK {
			t.Errorf("queued request answered %d, want 200", status)
		}
	}
	if high := s.st.queueHigh.Load(); high != 2 {
		t.Errorf("queue high-water mark %d, want 2", high)
	}
	if got := s.st.rejected.Load(); got != overflow {
		t.Errorf("rejected counter %d, want %d", got, overflow)
	}
}

// TestDeadline pins cancellation: a query whose deadline expires
// mid-scan answers 504 with partial diagnostics — fewer records
// searched than the database holds, no hits — proving the workers
// stopped spending on it rather than finishing the scan.
func TestDeadline(t *testing.T) {
	q, recs := testDB(t, 512, 400, 120)
	_, hs := newTestServer(t, recs, Config{Options: search.Options{Prune: true}})

	scalar := "scalar"
	resp, body := postSearch(t, hs.URL, RequestJSON{
		Query: q.String(), TimeoutMS: 1, Dispatch: &scalar,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r ResultJSON
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", r.Error)
	}
	if len(r.Hits) != 0 {
		t.Errorf("cancelled query returned %d hits", len(r.Hits))
	}
	if r.Searched >= len(recs) {
		t.Errorf("cancelled query searched %d of %d records — cancellation did not stop the scan",
			r.Searched, len(recs))
	}
	// The sibling full-length run still works: cancellation is per
	// query, not per server.
	resp, body = postSearch(t, hs.URL, RequestJSON{Query: q[:64].String()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", resp.StatusCode, body)
	}
}

// TestShutdownDrain pins the drain protocol: Shutdown refuses new work
// with 503 but answers everything already admitted.
func TestShutdownDrain(t *testing.T) {
	q, recs := testDB(t, 64, 60, 30)
	s, hs := newTestServer(t, recs, Config{})
	release := holdFirstBatch(s)

	type reply struct {
		status int
		body   []byte
	}
	inflight := make(chan reply, 1)
	go func() {
		resp, body := postSearch(t, hs.URL, RequestJSON{Query: q[:32].String()})
		inflight <- reply{resp.StatusCode, body}
	}()
	waitFor(t, "in-flight batch to start", func() bool { return s.st.batches.Load() == 1 })

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	waitFor(t, "server to report draining", s.Draining)
	resp, _ := postSearch(t, hs.URL, RequestJSON{Query: "ACGTACGT"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("request during drain got %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain got %d, want 503", hresp.StatusCode)
	}

	release()
	r := <-inflight
	if r.status != http.StatusOK {
		t.Errorf("in-flight request drained with status %d: %s", r.status, r.body)
	}
	if err := <-done; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestStatszPackInfo checks that a pack-loaded server surfaces the
// load mode and byte split on /statsz: serving a v2 pack is
// validate-header-and-map, and the stats page is where that shows.
func TestStatszPackInfo(t *testing.T) {
	q, recs := testDB(t, 48, 60, 30)
	p, err := dbpack.Build(recs, 11)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.pack")
	if err := dbpack.WriteFileV2(path, p); err != nil {
		t.Fatal(err)
	}
	opened, err := dbpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { opened.Close() }) //nolint:errcheck // best-effort teardown
	s, err := New(Config{DB: opened.DB, Pack: &opened.Info})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	resp, body := postSearch(t, hs.URL, RequestJSON{Query: q.String()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search over pack-backed server: status %d: %s", resp.StatusCode, body)
	}
	sresp, err := http.Get(hs.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st StatszJSON
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" && st.Pack.Mode != "mmap" {
		t.Errorf("pack mode %q, want mmap on linux", st.Pack.Mode)
	}
	if st.Pack.Version != 3 {
		t.Errorf("pack version %d, want 3", st.Pack.Version)
	}
	if st.Pack.Mode == "mmap" && st.Pack.MappedBytes == 0 {
		t.Error("mmap-backed server reports 0 mapped bytes")
	}
	if st.Pack.LayoutRebuilt {
		t.Error("clean pack reports a rebuilt layout")
	}
}

// TestStatsz sanity-checks the observability surface after traffic.
func TestStatsz(t *testing.T) {
	q, recs := testDB(t, 48, 60, 30)
	_, hs := newTestServer(t, recs, Config{Options: search.Options{Prune: true}})

	for i := 0; i < 3; i++ {
		resp, body := postSearch(t, hs.URL, RequestJSON{Query: q.String()})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	resp, err := http.Get(hs.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatszJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Records != len(recs) || st.Queries != 3 || st.Served != 3 || st.Batches == 0 {
		t.Errorf("statsz %+v: want %d records, 3 queries, 3 served, >0 batches", st, len(recs))
	}
	if st.Prune.Scanned+st.Prune.Skipped+st.Prune.Abandoned == 0 {
		t.Error("statsz prune counters all zero after pruned scans")
	}
	if len(st.Routes.Group) == 0 {
		t.Error("statsz has no group route counts after auto-dispatch scans")
	}
	if st.Pack.Mode != "memory" || st.Pack.Version != 0 {
		t.Errorf("in-memory server reports pack %+v, want memory mode version 0", st.Pack)
	}
	total := int64(0)
	for _, n := range st.LatencyMS {
		total += n
	}
	if total != 3 {
		t.Errorf("latency histogram holds %d requests, want 3", total)
	}
}

func TestBadRequests(t *testing.T) {
	_, recs := testDB(t, 32, 40, 10)
	_, hs := newTestServer(t, recs, Config{BatchMax: 4})

	cases := []struct {
		name string
		req  RequestJSON
		want int
	}{
		{"no query", RequestJSON{}, http.StatusBadRequest},
		{"both forms", RequestJSON{Query: "ACGT", Queries: []QueryJSON{{Seq: "ACGT"}}}, http.StatusBadRequest},
		{"bad base", RequestJSON{Query: "ACGX"}, http.StatusBadRequest},
		{"empty seq in batch", RequestJSON{Queries: []QueryJSON{{Seq: "ACGT"}, {Seq: ""}}}, http.StatusBadRequest},
		{"over batch cap", func() RequestJSON {
			var r RequestJSON
			for i := 0; i < 5; i++ {
				r.Queries = append(r.Queries, QueryJSON{Seq: "ACGTACGT"})
			}
			return r
		}(), http.StatusBadRequest},
		{"bad dispatch", func() RequestJSON { d := "warp"; return RequestJSON{Query: "ACGT", Dispatch: &d} }(), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postSearch(t, hs.URL, tc.req)
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d (%s)", resp.StatusCode, tc.want, body)
			}
		})
	}
	// Unknown fields — a removed option or a misspelling — are rejected
	// by name instead of silently scanning with the defaults.
	for _, tc := range []struct{ name, body, field string }{
		{"bad lanes", `{"query":"ACGT","lanes":4}`, "lanes"},
		{"misspelt field", `{"query":"ACGT","topk":3}`, "topk"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRaw(t, hs.URL, []byte(tc.body))
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.field) {
				t.Errorf("status %d, want 400 naming %q (%s)", resp.StatusCode, tc.field, body)
			}
		})
	}
	resp, err := http.Get(hs.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /search got %d, want 405", resp.StatusCode)
	}
}
