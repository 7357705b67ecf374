package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"genomedsm/internal/bio"
	"genomedsm/internal/server"
)

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {20, 0.5}, {44, 0.75}, {50, 0.8}, {109, 0.9}, {110, 0.9},
		{219, 0.95}, {220, 0.95}, {499, 0.95}, {500, 0.98}, {1100, 0.99}, {11000, 0.999},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if got > 0 && beyond(got, c.n) < minBeyond {
			t.Errorf("n=%d: p%g has %d beyond, rule needs %d", c.n, got*100, beyond(got, c.n), minBeyond)
		}
	}
	// Nearest rank: p90 of 1..100 is 90 with 10 samples beyond it.
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if p := percentile(xs, 0.9); p != 90 || beyond(0.9, 100) != 10 {
		t.Errorf("p90 of 1..100 = %g with %d beyond, want 90 with 10", p, beyond(0.9, 100))
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	// A failed request is +Inf: it misses every latency limit.
	var s loadStats
	s.request(5, 1, 0, 0)
	s.request(7, 1, 1, 0)
	if !math.IsInf(percentile(s.lat, 0.9), 1) || median(s.lat) != 5 {
		t.Errorf("failed request not counted as +Inf: %v", s.lat)
	}
}

// fakeServer answers POST /search with a canned status and body.
func fakeServer(t *testing.T, status int, body any) string {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		w.Write(b)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func TestFailureClassification(t *testing.T) {
	query := func(i int) bio.Sequence { return bio.Sequence(strings.Repeat("ACGT", 25+i)) }
	batch := serveSpec{batch: 3}
	ok := server.ResultJSON{Hits: []server.HitJSON{{Index: 1, Score: 9}}}
	const dbBases = 1000
	for _, c := range []struct {
		name   string
		status int
		body   any
		spec   serveSpec
		failed int
		cells  int64 // full-matrix cells of the answered queries
	}{
		{"200 batch", http.StatusOK, server.ResponseJSON{Results: []server.ResultJSON{ok, ok, ok}}, batch, 0,
			int64(len(query(3))+len(query(4))+len(query(5))) * dbBases},
		{"per-query error", http.StatusOK, server.ResponseJSON{Results: []server.ResultJSON{ok, {Error: "context deadline exceeded"}, ok}}, batch, 1,
			int64(len(query(3))+len(query(5))) * dbBases},
		{"short batch", http.StatusOK, server.ResponseJSON{Results: []server.ResultJSON{ok}}, batch, 3, 0},
		{"429", http.StatusTooManyRequests, map[string]string{"error": "queue full"}, batch, 3, 0},
		{"503", http.StatusServiceUnavailable, map[string]string{"error": "draining"}, batch, 3, 0},
		{"single 200", http.StatusOK, ok, serveSpec{batch: 1}, 0, int64(len(query(1))) * dbBases},
		{"single 504", http.StatusGatewayTimeout, server.ResultJSON{Error: "deadline"}, serveSpec{batch: 1}, 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := doPost(fakeServer(t, c.status, c.body), c.spec, query, dbBases, 1)
			if r.failed != c.failed || r.cells != c.cells {
				t.Errorf("failed %d cells %d, want %d and %d", r.failed, r.cells, c.failed, c.cells)
			}
			if len(r.answers)+r.failed != c.spec.batch {
				t.Errorf("%d answers + %d failed != %d queries", len(r.answers), r.failed, c.spec.batch)
			}
			// A batch POST counts its queries as operations.
			var s loadStats
			s.request(r.ms, c.spec.batch, r.failed, r.cells)
			if s.attempted != c.spec.batch || s.answered() != c.spec.batch-c.failed || len(s.lat) != 1 {
				t.Errorf("stats %+v", s)
			}
		})
	}
	if r := doPost("http://127.0.0.1:1", batch, query, dbBases, 0); r.failed != 3 {
		t.Errorf("transport error: %d failed, want 3", r.failed)
	}
}

func TestMcupsAccounting(t *testing.T) {
	// mcups counts the full |q|·Σ|record| matrix of every answered
	// operation, whatever pruning skipped.
	if got := fullCells(1000, 50835); got != 50835000 {
		t.Errorf("fullCells = %d", got)
	}
	out := &outcome{wall: 2, setup: []float64{1}, heap: 1e6, alloc: 4e6}
	out.load.request(10, 4, 0, 4*fullCells(300, 1000))
	out.load.request(20, 4, 1, 3*fullCells(300, 1000))
	m := endToEnd(out, 0.5)
	if m["mcups"].Value != 7*300*1000/2/1e6 || m["ops_per_s"].Value != 7.0/2 || m["alloc_mb_per_op"].Value != 0.5 {
		t.Errorf("metrics %+v", m)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		// nested, overlapping children count once: [10,40) ∪ [30,50) = 40
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 30, End: 50},
		// grandchild: subtracted from b only
		{ID: 4, Parent: 3, Op: 1, Name: "c", Start: 35, End: 45},
		// replays of a run after it, laid end to end from a's start
		{ID: 5, Parent: 2, Op: 1, Name: "r1", Start: 60, End: 70},
		{ID: 6, Parent: 2, Op: 1, Name: "r2", Start: 70, End: 85},
		// a replay longer than its parent covers all of it
		{ID: 7, Parent: 4, Op: 1, Name: "r3", Start: 85, End: 99},
		// partly outside: clipped to the parent
		{ID: 8, Parent: 1, Op: 1, Name: "d", Start: 95, End: 120},
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 5, 2: 30 - 25, 3: 20 - 10, 4: 0, 5: 10, 6: 15, 7: 14, 8: 25}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self %d, want %d", id, got[id], w)
		}
	}
	for _, s := range summarize(spans) {
		if s.Name == "a" && (s.MedianMS != 30e-6 || s.SelfMS != 5e-6) {
			t.Errorf("summary %+v", s)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	gen := func(seed int64) []byte {
		var b bytes.Buffer
		w := func(s bio.Sequence) { b.Write(s); b.WriteByte('|') }
		for _, r := range noiseDB(seed, 40, 60, 1000) {
			fmt.Fprint(&b, r.ID)
			w(r.Seq)
		}
		recs, genes := familyDB(seed, familySpec{Families: 3, Copies: 11, GeneLen: 100, PadLo: 150, PadHi: 300, Noise: 5, NoiseLo: 60, NoiseHi: 100})
		for _, r := range recs {
			fmt.Fprint(&b, r.ID)
			w(r.Seq)
		}
		for i := 0; i < 5; i++ {
			w(randomQuery(seed, i, 1000))
			w(familyQuery(seed, i, genes))
			w(sampledRead(seed, i, 50, recs))
			p, err := homologousPair(seed, i, 300)
			if err != nil {
				t.Fatal(err)
			}
			w(p.S)
			w(p.T)
		}
		fmt.Fprint(&b, sample(seed, 100, 7))
		return b.Bytes()
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !bytes.Equal(a, b) {
		t.Error("same seed gave different inputs")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave identical inputs")
	}
	// The length multiset does not move with the seed.
	sum := func(seed int64) (n int) {
		for _, r := range noiseDB(seed, 96, 60, 1000) {
			n += len(r.Seq)
		}
		return n
	}
	if sum(1) != sum(2) {
		t.Errorf("database size moved with the seed: %d vs %d", sum(1), sum(2))
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the code: workload names and
// tail percentiles, end-to-end names and units, per-layer names and units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || !strings.HasSuffix(bj.Workloads[i].Why, fmt.Sprintf("Tail p%g", w.tail*100)) {
			t.Errorf("workload %d: %+v vs %s p%g", i, bj.Workloads[i], w.name, w.tail*100)
		}
	}
	e2e := endToEnd(&outcome{wall: 1}, 0.5)
	if len(e2e) != len(bj.EndToEnd) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(bj.EndToEnd), len(e2e))
	}
	for _, m := range bj.EndToEnd {
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q in code", m.Name, m.Unit, e2e[m.Name].Unit)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if bj.PerLayer[i].Name != m.name || bj.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer %d: %+v vs %+v", i, bj.PerLayer[i], m)
		}
	}
}
