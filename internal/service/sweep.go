package service

import (
	"encoding/json"
	"fmt"
	"strings"

	"seadopt"
	"seadopt/internal/arch"
	"seadopt/internal/ingest"
)

// sweepPointJSON is one sweep point's slot in the aggregate result: its
// 1-based point number (matching the Point tag on the progress stream), the
// index of its platform in the submission's [platform]+sweep_platforms
// list, its deadline, and either the scalar Design or the Pareto frontier.
type sweepPointJSON struct {
	Point       int               `json:"point"`
	Platform    int               `json:"platform"`
	DeadlineSec float64           `json:"deadline_sec"`
	Objectives  string            `json:"objectives,omitempty"`
	Design      *seadopt.Design   `json:"design,omitempty"`
	Size        int               `json:"size,omitempty"`
	Frontier    []*seadopt.Design `json:"frontier,omitempty"`
}

// executeSweep runs a mode=sweep flight: the cross product of the
// submission's platform list, deadline sweep and (in Pareto point mode)
// objective sets. Each platform's points run through one OptimizeSweep
// batch, so the bounds precompute happens once per (graph, platform) and a
// probe verdict computed for one point is never recomputed for another.
// Points stream in deterministic platform-major × deadline × objective-set
// order over the shared progress log, each event tagged with its 1-based
// point; the aggregate result carries every point's design or frontier.
// Every point's payload is byte-identical to what an equivalent single-point
// submission would produce. opts are the flight's engine options. Each
// platform's batch runs over the server's reuse bundle for the probe key of
// the problem on that platform, the bundle single-point jobs over the same
// workload share, so a sweep and those jobs never probe a combination
// twice. A probe climbs only as deep as its own point's deadline needs, so
// a sweep leaves the bundle as single jobs at its points would.
func (s *Server) executeSweep(f *flight, opts seadopt.OptimizeOptions) (*cacheEntry, error) {
	o := f.problem.Options
	pointMode, err := ingest.ParseMode(o.SweepPointMode)
	if err != nil || pointMode == ingest.ModeSweep {
		return nil, fmt.Errorf("service: sweep point mode %q (want scalar or pareto)", o.SweepPointMode)
	}
	pareto := pointMode == ingest.ModePareto
	if len(o.SweepDeadlines) == 0 {
		return nil, fmt.Errorf("service: sweep submission has no deadlines")
	}
	objSets := o.SweepObjectiveSets
	if !pareto {
		objSets = nil
	} else if len(objSets) == 0 {
		objSets = []string{""} // the default objective selection
	}
	parsedSets := make([]seadopt.ParetoObjectives, len(objSets))
	for i, set := range objSets {
		if parsedSets[i], err = seadopt.ParseParetoObjectives(set); err != nil {
			return nil, err
		}
	}
	platforms := append([]*arch.Platform{f.problem.Platform}, f.problem.SweepPlatforms...)

	e := &cacheEntry{stats: opts.Stats}
	prunedSoFar := 0 // cumulative across points; callbacks are serialized
	var payloadPoints []sweepPointJSON
	var sb strings.Builder
	globalPoint := 0
	for pi, plat := range platforms {
		sys, err := seadopt.NewSystem(f.problem.Graph, plat)
		if err != nil {
			return nil, err
		}
		var points []seadopt.SweepPoint
		for _, d := range o.SweepDeadlines {
			if pareto {
				for _, objs := range parsedSets {
					points = append(points, seadopt.SweepPoint{DeadlineSec: d, Pareto: true, Objectives: objs})
				}
			} else {
				points = append(points, seadopt.SweepPoint{DeadlineSec: d})
			}
		}
		pp := *f.problem
		pp.Platform = plat
		popts := opts
		if pk, err := pp.ProbeKey(); err == nil {
			popts.Reuse = s.reuses.Get(pk)
		}
		base := globalPoint
		sopts := seadopt.SweepOptions{
			// Stats receives each platform's sweep-wide aggregate; the last
			// one wins.
			Options: popts,
			PointProgress: func(point int, p seadopt.ExploreProgress) {
				s.mirrorProgress(f, base+point+1, &prunedSoFar, p)
			},
		}
		s.engineExecs.Add(1)
		res, err := sys.OptimizeSweepContext(f.ctx, points, sopts)
		if err != nil {
			return nil, err
		}
		s.sweepPoints.Add(int64(len(res)))
		for j, r := range res {
			pj := sweepPointJSON{
				Point:       base + j + 1,
				Platform:    pi,
				DeadlineSec: r.Spec.DeadlineSec,
			}
			if r.Spec.Pareto {
				pj.Objectives = r.Spec.Objectives.String()
				pj.Size = len(r.Frontier)
				pj.Frontier = r.Frontier
				fmt.Fprintf(&sb, "  [%d] platform %d deadline %s: frontier over (%s): %d design(s)\n",
					pj.Point, pi, formatFloat(r.Spec.DeadlineSec), pj.Objectives, len(r.Frontier))
			} else {
				pj.Design = r.Design
				fmt.Fprintf(&sb, "  [%d] platform %d deadline %s: scaling %v  %s\n",
					pj.Point, pi, formatFloat(r.Spec.DeadlineSec), r.Design.Scaling, r.Design.Eval.String())
			}
			payloadPoints = append(payloadPoints, pj)
		}
		globalPoint += len(res)
	}
	payload := struct {
		Mode      string           `json:"mode"`
		PointMode string           `json:"point_mode"`
		Platforms int              `json:"platforms"`
		Size      int              `json:"size"`
		Points    []sweepPointJSON `json:"points"`
	}{Mode: ingest.ModeSweep, PointMode: pointMode, Platforms: len(platforms), Size: len(payloadPoints), Points: payloadPoints}
	if e.result, err = json.Marshal(payload); err != nil {
		return nil, err
	}
	header := fmt.Sprintf("sweep: %d point(s) = %d platform(s) × %d deadline(s)",
		len(payloadPoints), len(platforms), len(o.SweepDeadlines))
	if pareto {
		header += fmt.Sprintf(" × %d objective set(s)", len(parsedSets))
	}
	e.summary = header + "\n" + sb.String()
	return e, nil
}
