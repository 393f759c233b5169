package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"seadopt"
)

// runFlagship times in-process solves: every round solves each corpus
// problem once, in seed order, with a fresh System per solve. The number of
// rounds depends on --seconds alone. The host's speed is sampled before
// every set-up and every solve, and steal is measured over the set-ups and
// over each solve.
func runFlagship(ctx context.Context, o options, gold golden, tr *tracer, w io.Writer) (*result, error) {
	noc := o.workload == flagshipNoC
	hs := newHostSpeed()
	var corpus []flagshipProblem
	var setups []timedOp
	setupMark := hs.mark()
	for i := 0; i < o.size.setups; i++ {
		hs.sample()
		t0 := time.Now()
		c, err := flagshipCorpus(noc, o.size.flagshipProblems)
		if err != nil {
			return nil, err
		}
		setups = append(setups, timedOp{latency: time.Since(t0).Seconds()})
		tr.record("setup", "", 0, 0, t0, time.Now())
		corpus = c
	}
	unstolenOver(setups, hs.unstolen(setupMark))
	for _, prob := range corpus {
		if !gold.has(o.workload, prob.key) {
			return nil, fmt.Errorf("no recorded digest for %s %s; run with -update-golden", o.workload, prob.key)
		}
	}
	order := permutation(o.seed, len(corpus))
	res := &result{}
	var agg engineAgg
	var ops []timedOp

	// Traced runs alternate traced and untraced rounds, and need at least
	// one of each, to state the tracing overhead.
	minRounds := 1
	if tr != nil {
		minRounds = 2
	}
	rounds := units(o.workload, o.seconds, minRounds)
	var ph phase
	var cpu float64 // the solves' CPU time
	start := time.Now()
	for round := 0; round < rounds; round++ {
		if overCap(start, o.seconds) {
			res.stoppedShort(round, rounds, "rounds", o.seconds)
			break
		}
		traced := tr != nil && round%2 == 0
		for _, i := range order {
			if ctx.Err() != nil {
				return nil, errStopped
			}
			prob := corpus[i]
			opts := flagshipOptions(prob)
			var st seadopt.ExploreStats
			if traced {
				opts.Stats = &st
			}
			res.Attempted++
			hs.sample()
			mark := hs.mark()
			cpu0 := selfCPUSeconds()
			t0 := time.Now()
			sys, err := seadopt.NewSystem(prob.graph, prob.platform)
			var d *seadopt.Design
			if err == nil {
				d, err = sys.OptimizeContext(ctx, opts)
			}
			end := time.Now()
			cpu += selfCPUSeconds() - cpu0
			latency, unstolen := end.Sub(t0).Seconds(), hs.unstolen(mark)
			ph.add(latency, unstolen)
			ops = append(ops, timedOp{key: prob.key, latency: latency, traced: traced, unstolen: unstolen})
			if err != nil {
				res.fail("%s: %v", prob.key, err)
				continue
			}
			if traced {
				tr.record("solve", prob.key, 0, 0, t0, end)
				agg.add(&st)
			}
			if err := checkDesign(gold, o.workload, prob, d); err != nil {
				res.fail("%v", err)
			}
		}
	}
	if hs.err != nil {
		return nil, hs.err
	}
	rss, err := peakRSSMiB(0)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s: %d solves of %d problems in %.2f s\n", o.workload, len(ops), len(corpus), ph.wall)
	res.E2E = endToEnd(w, setups, ops, ph, cpu, rss, hs)

	if tr != nil {
		prob := corpus[0]
		r, err := measureRungs(ctx, rungInput{graph: prob.graph, platform: prob.platform, deadline: prob.deadline, doc: prob.doc},
			o.size.rungBatch, tr, "")
		if err != nil {
			return nil, err
		}
		res.Layer = layerMetrics(w, &agg, r, serviceLayer{}, tracingOverhead(ops), hs)
	}
	return res, nil
}

// checkDesign compares a design with its recorded digest and requires it to
// meet the deadline.
func checkDesign(gold golden, workload string, prob flagshipProblem, d *seadopt.Design) error {
	if !d.Eval.MeetsDeadline {
		return fmt.Errorf("%s: design misses its %.4f s deadline (T_M %.4f s)", prob.key, prob.deadline, d.Eval.TMSeconds)
	}
	data, err := json.Marshal(d)
	if err != nil {
		return fmt.Errorf("%s: %w", prob.key, err)
	}
	return gold.check(workload, prob.key, data)
}
