package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"genomedsm/internal/bio"
	"genomedsm/internal/dbpack"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/search"
	"genomedsm/internal/shard"
)

// QueryJSON is one query of a POST /search request.
type QueryJSON struct {
	Seq string `json:"seq"`
	// TopK and MinScore override the server defaults for this query
	// (0 keeps them).
	TopK     int `json:"top_k,omitempty"`
	MinScore int `json:"min_score,omitempty"`
	// TimeoutMS is this query's deadline: scan work on it stops at the
	// next lane-group boundary after it expires and the query answers
	// with its partial diagnostics (0 = no deadline).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Tag is echoed in the matching result, so concurrent clients can
	// pair responses to requests.
	Tag string `json:"tag,omitempty"`
}

// RequestJSON is the POST /search body: either Query (single form) or
// Queries (batch form), plus optional scan-option overrides. Requests
// whose overrides agree may be coalesced into one shared scan; the
// overrides never change any query's hits, only how they are computed.
type RequestJSON struct {
	Query     string `json:"query,omitempty"`
	TopK      int    `json:"top_k,omitempty"`
	MinScore  int    `json:"min_score,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
	Tag       string `json:"tag,omitempty"`

	Queries []QueryJSON `json:"queries,omitempty"`

	// nil keeps the server-wide setting.
	Dispatch   *string `json:"dispatch,omitempty"`
	Prune      *bool   `json:"prune,omitempty"`
	Prefilter  *bool   `json:"prefilter,omitempty"`
	ScoresOnly bool    `json:"scores_only,omitempty"`
}

// HitJSON mirrors search.Hit.
type HitJSON struct {
	Index  int    `json:"index"`
	ID     string `json:"id"`
	Score  int    `json:"score"`
	QBegin int    `json:"q_begin,omitempty"`
	QEnd   int    `json:"q_end,omitempty"`
	TBegin int    `json:"t_begin,omitempty"`
	TEnd   int    `json:"t_end,omitempty"`
}

// PruneJSON mirrors search.PruneStats.
type PruneJSON struct {
	Skipped    int   `json:"skipped"`
	Abandoned  int   `json:"abandoned"`
	Scanned    int   `json:"scanned"`
	CellsSaved int64 `json:"cells_saved"`
	FloorFinal int   `json:"floor_final"`
}

// ResultJSON is one query's outcome. Error is set when the query's
// deadline expired or its client disconnected; the scan counters then
// cover only the records processed before cancellation, and Hits is
// absent (a partial top K is not a top K).
type ResultJSON struct {
	Tag         string     `json:"tag,omitempty"`
	Hits        []HitJSON  `json:"hits"`
	Searched    int        `json:"searched"`
	Cells       int64      `json:"cells"`
	PaddedCells int64      `json:"padded_cells"`
	Prune       *PruneJSON `json:"prune,omitempty"`
	BatchSize   int        `json:"batch_size"`
	Error       string     `json:"error,omitempty"`
}

// ResponseJSON is the batch-form response envelope.
type ResponseJSON struct {
	Results []ResultJSON `json:"results"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone = nothing to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// requestOptions resolves one request's effective scan options from the
// server defaults plus the request's overrides, and the compatibility
// key under which it may share a scan. The key covers exactly the
// fields RunBatch applies batch-wide; per-query fields (TopK, MinScore,
// deadline) ride in the BatchQueries and never block coalescing.
func (s *Server) requestOptions(req *RequestJSON) (search.Options, string, error) {
	opt := s.cfg.Options
	if req.Dispatch != nil {
		opt.Dispatch = *req.Dispatch
	}
	if req.Prune != nil {
		opt.Prune = *req.Prune
	}
	if req.Prefilter != nil {
		opt.Prefilter = *req.Prefilter
	}
	opt.NoEndpoints = opt.NoEndpoints || req.ScoresOnly
	if _, err := dispatch.ParseMode(opt.Dispatch); err != nil {
		return opt, "", err
	}
	// The shared router serves scans in the server's own dispatch mode;
	// an override routes through a mode-built router inside RunBatch.
	if opt.Dispatch == s.cfg.Options.Dispatch {
		opt.Router = s.router
	} else {
		opt.Router = nil
	}
	key := fmt.Sprintf("%s|%t|%t|%t",
		opt.Dispatch, opt.Prune, opt.Prefilter, opt.NoEndpoints)
	return opt, key, nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	started := time.Now()
	var req RequestJSON
	dec := json.NewDecoder(r.Body)
	// An unknown field (a misspelt option, or one this server no longer
	// accepts) is a 400 naming it, never a silently default-routed scan.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	single := req.Query != ""
	if single == (len(req.Queries) > 0) {
		writeError(w, http.StatusBadRequest, errors.New(`exactly one of "query" and "queries" required`))
		return
	}
	if single {
		req.Queries = []QueryJSON{{
			Seq: req.Query, TopK: req.TopK, MinScore: req.MinScore,
			TimeoutMS: req.TimeoutMS, Tag: req.Tag,
		}}
	}
	if len(req.Queries) > s.cfg.BatchMax {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%d queries exceed the batch cap of %d", len(req.Queries), s.cfg.BatchMax))
		return
	}
	opt, key, err := s.requestOptions(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	p := &pending{key: key, opt: opt, out: make(chan outcome, 1)}
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	for i, qj := range req.Queries {
		seq, err := bio.NewSequence(qj.Seq)
		if err != nil || len(seq) == 0 {
			if err == nil {
				err = errors.New("empty sequence")
			}
			writeError(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
		qctx := r.Context()
		if qj.TimeoutMS > 0 {
			var cancel context.CancelFunc
			qctx, cancel = context.WithTimeout(qctx, time.Duration(qj.TimeoutMS)*time.Millisecond)
			cancels = append(cancels, cancel)
		}
		p.queries = append(p.queries, search.BatchQuery{
			Seq: seq, Ctx: qctx, TopK: qj.TopK, MinScore: qj.MinScore,
		})
	}

	if status, err := s.admit(p); err != nil {
		if status == http.StatusTooManyRequests {
			// Tell the shed client when the backlog should have drained;
			// blind immediate retries just re-fill the queue.
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		writeError(w, status, err)
		return
	}
	// The dispatcher always answers an admitted pending — even for a
	// dead client, whose per-query contexts make its queries cheap.
	o := <-p.out
	if o.err != nil {
		writeError(w, http.StatusInternalServerError, o.err)
		return
	}

	results := make([]ResultJSON, len(o.results))
	for i, br := range o.results {
		results[i] = toResultJSON(req.Queries[i].Tag, br, o.batchSize)
		if br.Err != nil {
			s.st.cancelled.Add(1)
		} else {
			s.st.served.Add(1)
		}
		s.addPrune(br)
	}
	s.st.observeLatency(time.Since(started))

	if single {
		status := http.StatusOK
		if err := o.results[0].Err; err != nil {
			// The query died before the scan finished: its deadline
			// expired (504) or its client went away (499 is nginx lore,
			// not HTTP; report 500). The partial diagnostics still ship.
			status = http.StatusInternalServerError
			if errors.Is(err, context.DeadlineExceeded) {
				status = http.StatusGatewayTimeout
			}
		}
		writeJSON(w, status, results[0])
		return
	}
	writeJSON(w, http.StatusOK, ResponseJSON{Results: results})
}

func toResultJSON(tag string, br search.BatchResult, batchSize int) ResultJSON {
	out := ResultJSON{Tag: tag, BatchSize: batchSize, Hits: []HitJSON{}}
	if br.Err != nil {
		out.Error = br.Err.Error()
		out.Hits = nil
	}
	if br.Result == nil {
		return out
	}
	res := br.Result
	out.Searched = res.Searched
	out.Cells = res.Cells
	out.PaddedCells = res.PaddedCells
	for _, h := range res.Hits {
		out.Hits = append(out.Hits, HitJSON{
			Index: h.Index, ID: h.ID, Score: h.Score,
			QBegin: h.QBegin, QEnd: h.QEnd, TBegin: h.TBegin, TEnd: h.TEnd,
		})
	}
	if res.Prune != nil {
		out.Prune = &PruneJSON{
			Skipped:    res.Prune.Skipped,
			Abandoned:  res.Prune.Abandoned,
			Scanned:    res.Prune.Scanned,
			CellsSaved: res.Prune.CellsSaved,
			FloorFinal: res.Prune.FloorFinal,
		}
	}
	return out
}

func (s *Server) addPrune(br search.BatchResult) {
	if br.Result == nil || br.Result.Prune == nil {
		return
	}
	p := br.Result.Prune
	s.st.pruneSkipped.Add(int64(p.Skipped))
	s.st.pruneAbandoned.Add(int64(p.Abandoned))
	s.st.pruneScanned.Add(int64(p.Scanned))
	s.st.pruneCellsSaved.Add(int64(p.CellsSaved))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining", "records": s.cfg.DB.Size(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "records": s.cfg.DB.Size(),
	})
}

// StatszJSON is the GET /statsz payload.
type StatszJSON struct {
	UptimeMS   int64 `json:"uptime_ms"`
	Records    int   `json:"records"`
	TotalBases int64 `json:"total_bases"`
	PackedWord int   `json:"prefilter_word,omitempty"`

	Queries    int64 `json:"queries"`
	Served     int64 `json:"served"`
	Cancelled  int64 `json:"cancelled"`
	Rejected   int64 `json:"rejected"`
	Batches    int64 `json:"batches"`
	QueueDepth int   `json:"queue_depth"`
	QueueHigh  int64 `json:"queue_high"`
	BatchMax   int64 `json:"batch_max"`

	// Pack describes how the served database got into memory: the pack
	// load mode ("mmap", "copy", "legacy-v1" or "memory" for an
	// in-process build), the pack format version (0 when built in
	// memory), and the mapped vs heap-resident byte split. A true
	// layout_rebuilt flags a pack whose stored lane-group section
	// failed semantic validation and was rebuilt from the records.
	Pack PackJSON `json:"pack"`

	// Shards is present when the server scans through a shard cluster:
	// per-shard health (liveness, span, answered counts, latency) plus
	// the cluster's retry/kill/reassign and gossip counters.
	Shards *shard.Stats `json:"shards,omitempty"`

	Prune struct {
		Skipped    int64 `json:"skipped"`
		Abandoned  int64 `json:"abandoned"`
		Scanned    int64 `json:"scanned"`
		CellsSaved int64 `json:"cells_saved"`
	} `json:"prune"`

	Routes struct {
		Group map[string]int64 `json:"group"`
		Pair  map[string]int64 `json:"pair"`
	} `json:"routes"`

	// LatencyMS is the request latency histogram: bucket upper bound in
	// milliseconds ("1", "2", ... and "inf") to request count.
	LatencyMS map[string]int64 `json:"latency_ms"`
}

// PackJSON is the /statsz pack-load block (see StatszJSON.Pack).
type PackJSON struct {
	Mode          string `json:"mode"`
	Version       int    `json:"version"`
	MappedBytes   int64  `json:"mapped_bytes"`
	HeapBytes     int64  `json:"heap_bytes"`
	LayoutRebuilt bool   `json:"layout_rebuilt,omitempty"`
	Notice        string `json:"notice,omitempty"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	var out StatszJSON
	out.UptimeMS = time.Since(s.start).Milliseconds()
	out.Records = s.cfg.DB.Size()
	out.TotalBases = s.cfg.DB.TotalBases()
	if ix := s.cfg.DB.WordIndex(); ix != nil {
		out.PackedWord = ix.Word()
	}
	pi := dbpack.Info{} // zero value reports an in-memory build
	if s.cfg.Pack != nil {
		pi = *s.cfg.Pack
	}
	out.Pack = PackJSON{
		Mode:          pi.Mode.String(),
		Version:       pi.Version,
		MappedBytes:   pi.MappedBytes,
		HeapBytes:     pi.HeapBytes,
		LayoutRebuilt: pi.LayoutRebuilt,
		Notice:        pi.Notice,
	}
	out.Queries = s.st.queries.Load()
	out.Served = s.st.served.Load()
	out.Cancelled = s.st.cancelled.Load()
	out.Rejected = s.st.rejected.Load()
	out.Batches = s.st.batches.Load()
	out.QueueDepth = s.QueueDepth()
	out.QueueHigh = s.st.queueHigh.Load()
	out.Shards = s.ShardStats()
	out.BatchMax = s.st.batchMax.Load()
	out.Prune.Skipped = s.st.pruneSkipped.Load()
	out.Prune.Abandoned = s.st.pruneAbandoned.Load()
	out.Prune.Scanned = s.st.pruneScanned.Load()
	out.Prune.CellsSaved = s.st.pruneCellsSaved.Load()
	out.Routes.Group = s.router.GroupCounts()
	out.Routes.Pair = s.router.PairCounts()
	out.LatencyMS = make(map[string]int64, len(latencyBucketsMS)+1)
	for i, ub := range latencyBucketsMS {
		if n := atomic.LoadInt64(&s.st.latency[i]); n > 0 {
			out.LatencyMS[fmt.Sprintf("%d", ub)] = n
		}
	}
	if n := atomic.LoadInt64(&s.st.latency[len(latencyBucketsMS)]); n > 0 {
		out.LatencyMS["inf"] = n
	}
	writeJSON(w, http.StatusOK, out)
}
