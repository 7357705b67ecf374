package search

import (
	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/swar"
)

// This file connects the database scan to internal/dispatch: Run asks
// the router for a route per lane group instead of hard-coding the int8
// ladder, and reports observed int8 saturation back so the router's
// retry prediction tracks the database actually being scanned. Every
// route resolves through the same exact-or-flagged kernels, so the hit
// set is bit-identical across routes — only the padded-cell cost
// differs.

// routerFor picks the scan router for one Run: a caller-provided
// router (Options.Router) wins, otherwise one is built from the
// Dispatch mode.
func routerFor(opt Options) (*dispatch.Router, error) {
	if opt.Router != nil {
		return opt.Router, nil
	}
	mode, err := dispatch.ParseMode(opt.Dispatch)
	if err != nil {
		return nil, err
	}
	if mode == dispatch.ModeAuto {
		// Auto routes by the per-process calibrated profile (probed once,
		// in memory; the CLI may pre-seed it from its on-disk cache).
		return dispatch.New(mode, dispatch.Host()), nil
	}
	return dispatch.New(mode, nil), nil
}

// scoreGroupRouted scores one lane group down the route the scan state
// picks, under an optional pruning bound (nil ab = no pruning). The
// packed and scalar routes all run the swar.Ladder from their start
// rung; singles run the striped pairwise ladder per record. Results are
// bit-exact across routes, including forced mis-routes. A non-nil gp
// supplies the group's shared prebuilt int8 profile for the inter8
// route.
func scoreGroupRouted(al *swar.Aligner, q bio.Sequence, targets []bio.Sequence, sc bio.Scoring, st *dispatch.ScanState, ab *swar.Bound, gp *groupProf) (swar.LadderScores, error) {
	lens := make([]int, len(targets))
	for i, t := range targets {
		lens[i] = len(t)
	}
	route := st.Group(len(q), lens, sc)
	var res swar.LadderScores
	switch route {
	case dispatch.GroupSingles:
		g := len(targets)
		res = swar.LadderScores{Scores: make([]int, g), Pruned: make([]bool, g), Rows: make([]int, g)}
		for i, t := range targets {
			p, r, pr := al.StripedScoreBounded(q, t, sc, ab)
			res.Scores[i], res.Rows[i], res.Pruned[i] = p.Score, r, pr
			// The striped layout pads the target to full words of 8 lanes.
			res.Padded += int64((lens[i]+bio.PackedLanes8-1)/bio.PackedLanes8*bio.PackedLanes8) * int64(r)
		}
	case dispatch.GroupInter8:
		var prof *bio.PackedProfile
		if gp != nil {
			prof = gp.profile()
		}
		var err error
		if res, err = al.Ladder(q, targets, sc, swar.Rung8, prof, ab); err != nil {
			return res, err
		}
		// A completed int8 pass is full saturation evidence for its
		// saturation-capable lanes; an abandoned one proves nothing about
		// the full matrix. The int16 retry of the flagged lanes is not
		// observed again.
		if res.Ran8 {
			possible, flagged := 0, 0
			for l, n := range lens {
				if dispatch.SatPossible8(len(q), n, sc) {
					possible++
					if res.Sat8&(1<<uint(l)) != 0 {
						flagged++
					}
				}
			}
			st.Observe8(possible, flagged)
		}
		return res, nil
	default:
		start := swar.RungScalar
		if route == dispatch.GroupInter16 {
			start = swar.Rung16
		}
		var err error
		if res, err = al.Ladder(q, targets, sc, start, nil, ab); err != nil {
			return res, err
		}
	}
	// A lane taken away from the int8 rung still proves, by its exact
	// score, whether an int8 scan would have saturated: feeding that back
	// lets the observed rate recover after a burst of saturating records
	// instead of routing everything to int16 — which produces no int8
	// evidence — for the rest of the scan.
	possible, flagged := 0, 0
	for i, n := range lens {
		if !res.Pruned[i] && dispatch.SatPossible8(len(q), n, sc) {
			possible++
			if res.Scores[i] > bio.PackedCap8 {
				flagged++
			}
		}
	}
	st.Observe8(possible, flagged)
	return res, nil
}
