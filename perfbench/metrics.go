package main

import (
	"math"
	"net/http"
	"sort"
)

// minBeyond is the tail rule: a reported tail percentile must have at
// least this many samples beyond it.
const minBeyond = 10

// tailLadder is the set of percentiles the tail is chosen from.
var tailLadder = []float64{0.999, 0.99, 0.98, 0.95, 0.9, 0.8, 0.75, 0.5}

// rank is the nearest-rank index of percentile p in n sorted samples
// (the epsilon keeps p·n from rounding up past an exact integer).
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)-1e-9)) - 1
	return max(0, min(r, n-1))
}

// beyond counts the samples strictly after percentile p's rank.
func beyond(p float64, n int) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(p, n)
}

// tailPercentile is the highest ladder percentile with at least minBeyond
// samples beyond it at n samples (0 when n is too small for any).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile of the samples. Failed
// operations are recorded as +Inf, so they count as missing every latency
// limit.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	return xs[rank(p, len(xs))]
}

// median of the samples.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// queryFailed classifies one query's answer for error_rate: a transport
// error or any non-200 status (429 full queue, 503 draining, 5xx) fails
// every query of the request; on a 200 a per-query error fails that query
// alone. Answers that fail verification are counted after the timed
// phase.
func queryFailed(transportErr error, status int, queryErr string) bool {
	return transportErr != nil || status != http.StatusOK || queryErr != ""
}

// fullCells is the mcups numerator of one answered query: the full DP
// matrix |q|·Σ|record|, whatever pruning skipped (pruned cells count as
// answered, so pruning shows as throughput).
func fullCells(qLen int, dbBases int64) int64 { return int64(qLen) * dbBases }

// loadStats accumulates one timed phase.
type loadStats struct {
	lat       []float64 // ms per request (or operation); +Inf when failed
	attempted int       // operations (queries for serve)
	failed    int
	cells     int64 // full-matrix cells of the answered operations
}

// request records one request of ops operations, of which failed failed,
// carrying cells full-matrix cells in its answered operations.
func (s *loadStats) request(ms float64, ops, failed int, cells int64) {
	if failed > 0 {
		ms = math.Inf(1)
	}
	s.lat = append(s.lat, ms)
	s.attempted += ops
	s.failed += failed
	s.cells += cells
}

// answered is the number of operations that did not fail.
func (s *loadStats) answered() int { return s.attempted - s.failed }
