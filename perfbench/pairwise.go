package main

import (
	"fmt"
	"time"

	"genomedsm"
	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/cluster"
	"genomedsm/internal/heuristics"
	"genomedsm/internal/phase2"
	"genomedsm/internal/preprocess"
	"genomedsm/internal/wavefront"
)

// pairwise_dsm: one fresh homologous pair per operation, compared with the
// paper's three strategies on 8 virtual processors.
const (
	pairLen    = 2000
	pairProcs  = 8
	pairVerify = 40
)

// pairPreprocess is the pre-process configuration: the paper's defaults
// with fixed-height bands, so the result matrix has the same shape at 1
// and at 8 processors and the sequential reference compares bit for bit.
func pairPreprocess() preprocess.Config {
	c := preprocess.DefaultConfig()
	c.BandScheme = preprocess.BandFixed
	c.BandSize = pairLen / pairProcs
	return c
}

// pairStrategies are one operation's three comparisons.
var pairStrategies = []struct {
	name string
	opt  genomedsm.Options
}{
	{"heuristic", genomedsm.Options{Strategy: genomedsm.StrategyHeuristic, Processors: pairProcs}},
	{"heuristic-block", genomedsm.Options{Strategy: genomedsm.StrategyHeuristicBlock, Processors: pairProcs, Phase2: true}},
	{"pre-process", genomedsm.Options{Strategy: genomedsm.StrategyPreprocess, Processors: pairProcs}},
}

// pairOp is one operation's reports, kept for verification.
type pairOp struct {
	i    int
	ms   float64
	reps []*genomedsm.Report
}

// runPairOp compares pair i with the three strategies. With a tracer it
// records each Compare as a span and replays the layer under it into d.
func runPairOp(seed int64, i int, pp preprocess.Config, tr *tracer, d *dsmTrace) (pairOp, int64, error) {
	op := pairOp{i: i}
	pair, err := homologousPair(seed, i, pairLen)
	if err != nil {
		return op, 0, err
	}
	root := 0
	if tr != nil {
		root = tr.begin(i+1, 0, "op")
	}
	var total time.Duration
	for _, st := range pairStrategies {
		o := st.opt
		o.Preprocess = &pp
		id := 0
		if tr != nil {
			id = tr.begin(i+1, root, "compare."+st.name)
		}
		t := time.Now()
		rep, err := genomedsm.Compare(pair.S, pair.T, o)
		total += time.Since(t)
		if err != nil {
			return op, 0, fmt.Errorf("%s: %w", st.name, err)
		}
		if tr != nil {
			tr.end(id)
			if err := d.replay(tr, i+1, id, st.name, pair, rep, pp); err != nil {
				return op, 0, err
			}
		}
		op.reps = append(op.reps, rep)
	}
	if tr != nil {
		tr.end(root)
		d.observe(op.reps)
	}
	op.ms = float64(total) / 1e6
	return op, int64(len(pairStrategies)) * int64(pair.S.Len()) * int64(pair.T.Len()), nil
}

func runPairwise(rc *runCtx) (*outcome, error) {
	out := &outcome{}
	pp := pairPreprocess()
	var ops []pairOp
	run := func(i int, tr *tracer, d *dsmTrace) error {
		op, cells, err := runPairOp(rc.seed, i, pp, tr, d)
		if err != nil {
			return err
		}
		ops = append(ops, op)
		out.load.request(op.ms, 1, 0, cells)
		return nil
	}
	if rc.traced {
		// setupReps calibrations, a first untraced quarter for the
		// overhead baseline, then traced operations.
		ss := &setupStats{}
		for rep := 0; rep < setupReps; rep++ {
			calibrate(rc, rep, ss)
		}
		var d dsmTrace
		var untraced, traced []float64
		start := time.Now()
		for i := 0; time.Now().Before(rc.deadline(start)); i++ {
			var tr *tracer
			if time.Since(start) >= rc.seconds/4 {
				tr = rc.tr
			}
			if err := run(i, tr, &d); err != nil {
				return nil, err
			}
			if tr == nil {
				untraced = append(untraced, ops[i].ms)
			} else {
				traced = append(traced, ops[i].ms)
			}
		}
		L := map[string]float64{}
		setupLayers(L, ss)
		d.fill(L)
		L["trace.ops"] = float64(len(traced))
		traceOverhead(L, traced, untraced)
		out.layers = L
	} else {
		err := lives(rc, out, func() (func() error, float64, error) {
			return noTeardown, calibrate(rc, 0, nil), nil
		}, func(deadline time.Time) error {
			for i := len(ops); time.Now().Before(deadline); i++ {
				if err := run(i, nil, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// Verify each sampled operation's three outputs against the
	// sequential references the chaos oracle uses: heuristics.Scan for
	// the candidates, phase2.Sequential for the alignments, a 1-node
	// pre-process run for the result matrix.
	sc := bio.DefaultScoring()
	for _, k := range sample(rc.seed, len(ops), pairVerify) {
		op := ops[k]
		pair, err := homologousPair(rc.seed, op.i, pairLen)
		if err != nil {
			return nil, err
		}
		cands, err := heuristics.Scan(pair.S, pair.T, sc, heuristics.DefaultParams())
		if err != nil {
			return nil, err
		}
		aligns, err := phase2.Sequential(pair.S, pair.T, sc, phase2.JobsFromCandidates(cands))
		if err != nil {
			return nil, err
		}
		pre, err := preprocess.Run(1, cluster.Calibrated2005(), pair.S, pair.T, sc, pp, nil)
		if err != nil {
			return nil, err
		}
		out.verified++
		msg := compareCandidates(op.reps[0].Candidates, cands)
		if msg == "" {
			msg = compareCandidates(op.reps[1].Candidates, cands)
		}
		if msg == "" {
			msg = compareAlignments(op.reps[1].Alignments, aligns)
		}
		if msg == "" {
			msg = comparePreprocess(op.reps[2].Preprocess, pre)
		}
		if msg != "" {
			rc.log("MISMATCH pair %d: %s", op.i, msg)
			out.mismatches++
			out.load.failed++
			out.load.cells -= int64(len(pairStrategies)) * int64(pair.S.Len()) * int64(pair.T.Len())
		}
	}
	return out, nil
}

func compareCandidates(got, want []heuristics.Candidate) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d candidates, sequential %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("candidate %d: got %+v, sequential %+v", i, got[i], want[i])
		}
	}
	return ""
}

func compareAlignments(got, want []*align.Alignment) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d alignments, sequential %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if (g == nil) != (w == nil) {
			return fmt.Sprintf("alignment %d: nil mismatch", i)
		}
		if g == nil {
			continue
		}
		same := g.SBegin == w.SBegin && g.SEnd == w.SEnd && g.TBegin == w.TBegin && g.TEnd == w.TEnd &&
			g.Score == w.Score && len(g.Ops) == len(w.Ops)
		for j := 0; same && j < len(w.Ops); j++ {
			same = g.Ops[j] == w.Ops[j]
		}
		if !same {
			return fmt.Sprintf("alignment %d differs from the sequential one", i)
		}
	}
	return ""
}

func comparePreprocess(got, want *preprocess.Result) string {
	if got == nil || want == nil {
		return "missing pre-process result"
	}
	if got.TotalHits != want.TotalHits || got.BestScore != want.BestScore || got.BestI != want.BestI || got.BestJ != want.BestJ {
		return fmt.Sprintf("hits %d best %d at (%d,%d), sequential hits %d best %d at (%d,%d)",
			got.TotalHits, got.BestScore, got.BestI, got.BestJ, want.TotalHits, want.BestScore, want.BestI, want.BestJ)
	}
	if len(got.ResultMatrix) != len(want.ResultMatrix) {
		return fmt.Sprintf("result matrix has %d bands, sequential %d", len(got.ResultMatrix), len(want.ResultMatrix))
	}
	for b := range want.ResultMatrix {
		if len(got.ResultMatrix[b]) != len(want.ResultMatrix[b]) {
			return fmt.Sprintf("band %d has %d groups, sequential %d", b, len(got.ResultMatrix[b]), len(want.ResultMatrix[b]))
		}
		for g := range want.ResultMatrix[b] {
			if got.ResultMatrix[b][g] != want.ResultMatrix[b][g] {
				return fmt.Sprintf("result matrix [%d][%d] = %d, sequential %d", b, g, got.ResultMatrix[b][g], want.ResultMatrix[b][g])
			}
		}
	}
	return ""
}

// dsmTrace replays each comparison one layer down — the wavefront scans,
// phase 2 and the pre-process run the facade wraps — and accumulates the
// DSM protocol and virtual-time cluster metrics of the real calls.
type dsmTrace struct {
	noblockMS, blockedMS, phase2MS, preMS []float64
	pageFetches, msgs, mbMoved, locks     []float64
	barriers                              []float64
	makespan                              [3][]float64
	shares                                [4][]float64
}

// replay reruns the layer under comparison name as a span child of parent,
// with the arguments Compare passes it.
func (d *dsmTrace) replay(tr *tracer, op, parent int, name string, pair bio.HomologousPair, rep *genomedsm.Report, pp preprocess.Config) error {
	cc := cluster.Calibrated2005()
	sc := bio.DefaultScoring()
	hp := heuristics.DefaultParams()
	ms := func(t time.Duration) float64 { return float64(t) / 1e6 }
	switch name {
	case "heuristic":
		t, err := tr.do(op, parent, "wavefront.noblock", func() error {
			_, err := wavefront.RunNoBlock(pairProcs, cc, pair.S, pair.T, sc, hp)
			return err
		})
		d.noblockMS = append(d.noblockMS, ms(t))
		return err
	case "heuristic-block":
		bc := wavefront.MultiplierConfig(5, 5, pairProcs)
		t, err := tr.do(op, parent, "wavefront.blocked", func() error {
			_, err := wavefront.RunBlocked(pairProcs, cc, pair.S, pair.T, sc, hp, bc)
			return err
		})
		if err != nil {
			return err
		}
		d.blockedMS = append(d.blockedMS, ms(t))
		t, err = tr.do(op, parent, "phase2", func() error {
			_, err := phase2.RunWithOptions(pairProcs, cc, pair.S, pair.T, sc, phase2.JobsFromCandidates(rep.Candidates), phase2.RunOptions{})
			return err
		})
		d.phase2MS = append(d.phase2MS, ms(t))
		return err
	default:
		t, err := tr.do(op, parent, "preprocess", func() error {
			_, err := preprocess.Run(pairProcs, cc, pair.S, pair.T, sc, pp, &preprocess.DiscardSink{})
			return err
		})
		d.preMS = append(d.preMS, ms(t))
		return err
	}
}

// observe records one operation's DSM counters (summed over its three
// comparisons), each strategy's modelled makespan, and the Fig. 10
// category shares of all its nodes merged with cluster.Merge.
func (d *dsmTrace) observe(reps []*genomedsm.Report) {
	var fetch, msgs, bytes, locks, barriers int64
	var bds []cluster.Breakdown
	for k, rep := range reps {
		s := rep.Stats
		fetch += s.PageFetches
		msgs += s.MsgsSent
		bytes += s.BytesMoved
		locks += s.LockAcquires
		barriers += s.Barriers
		d.makespan[k] = append(d.makespan[k], rep.Phase1Time+rep.Phase2Time)
		bds = append(bds, rep.Breakdowns...)
	}
	d.pageFetches = append(d.pageFetches, float64(fetch))
	d.msgs = append(d.msgs, float64(msgs))
	d.mbMoved = append(d.mbMoved, float64(bytes)/1e6)
	d.locks = append(d.locks, float64(locks))
	d.barriers = append(d.barriers, float64(barriers))
	m := cluster.Merge(bds)
	var total float64
	for _, v := range m.Cat {
		total += v
	}
	for c, cat := range []cluster.Category{cluster.Compute, cluster.Comm, cluster.LockCV, cluster.Barrier} {
		d.shares[c] = append(d.shares[c], ratio(m.Cat[cat], total))
	}
}

func (d *dsmTrace) fill(L map[string]float64) {
	L["wavefront.noblock_ms"] = median(d.noblockMS)
	L["wavefront.blocked_ms"] = median(d.blockedMS)
	L["phase2.ms"] = median(d.phase2MS)
	L["preprocess.ms"] = median(d.preMS)
	L["dsm.page_fetches"] = median(d.pageFetches)
	L["dsm.msgs"] = median(d.msgs)
	L["dsm.mb_moved"] = median(d.mbMoved)
	L["dsm.lock_acquires"] = median(d.locks)
	L["dsm.barriers"] = median(d.barriers)
	for k, st := range pairStrategies {
		L["cluster.makespan_s."+st.name] = median(d.makespan[k])
	}
	for c, n := range []string{"compute", "comm", "lockcv", "barrier"} {
		L["cluster."+n+"_share"] = median(d.shares[c])
	}
}
