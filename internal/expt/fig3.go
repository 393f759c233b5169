package expt

import (
	"fmt"
	"io"

	"seadopt/internal/arch"
	"seadopt/internal/metrics"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

// Fig3Point is one task mapping of the Fig. 3 sweep evaluated at the two
// uniform scalings the figure uses.
type Fig3Point struct {
	Mapping sched.Mapping
	// All cores at s=1 (200 MHz, 1.0 V):
	TM1ms  float64 // multiprocessor execution time
	RKb    float64 // overall register usage R, kbit (scaling-independent)
	Gamma1 float64 // SEUs experienced
	// All cores at s=2 (100 MHz, 0.58 V):
	TM2ms  float64
	Gamma2 float64
}

// Fig3Result is the full 120-mapping sweep of Fig. 3.
type Fig3Result struct {
	Points []Fig3Point
}

// Fig3 reproduces the §III motivation study: the MPEG-2 decoder on the
// 4-core MPSoC under "a total of 120 task mappings".
//
// The 120 mappings are the contiguous partitions of the 11-task decoder
// pipeline into 4 non-empty blocks (C(10,3) = 120 — exactly the paper's
// count), which sweep the design space from maximal locality to maximal
// distribution. Each is evaluated at all-s=1 and all-s=2, yielding the
// R-vs-T_M trade-off (Fig. 3a) and the concave Γ-vs-T_M curves
// (Fig. 3b, 3c).
func Fig3(cfg Config) (*Fig3Result, error) {
	cfg = cfg.withDefaults()
	g := taskgraph.MPEG2()
	p, err := arch.NewPlatform(4, arch.ARM7Levels3())
	if err != nil {
		return nil, err
	}
	// One evaluator per scaling (all cores at s=1, at s=2) scores every
	// mapping.
	var evals [2]*metrics.Evaluator
	for i := range evals {
		e, err := metrics.NewEvaluator(g, p, cfg.serModel(), metrics.Options{Iterations: taskgraph.MPEG2Frames})
		if err == nil {
			err = e.Bind([]int{i + 1, i + 1, i + 1, i + 1})
		}
		if err != nil {
			return nil, err
		}
		evals[i] = e
	}
	res := &Fig3Result{}

	n := g.N()
	// All cut-point triples 1 <= a < b < c <= n-1 partition tasks
	// [0,a) [a,b) [b,c) [c,n) onto cores 0..3.
	for a := 1; a <= n-3; a++ {
		for b := a + 1; b <= n-2; b++ {
			for c := b + 1; c <= n-1; c++ {
				m := make(sched.Mapping, n)
				for t := 0; t < n; t++ {
					switch {
					case t < a:
						m[t] = 0
					case t < b:
						m[t] = 1
					case t < c:
						m[t] = 2
					default:
						m[t] = 3
					}
				}
				var sc [2]metrics.Score
				for i, e := range evals {
					s, err := e.Score(m)
					if err != nil {
						return nil, err
					}
					sc[i] = s
				}
				res.Points = append(res.Points, Fig3Point{
					Mapping: m,
					TM1ms:   sc[0].TMSeconds * 1e3,
					RKb:     float64(sc[0].TotalRegBits) / 1024.0,
					Gamma1:  sc[0].Gamma,
					TM2ms:   sc[1].TMSeconds * 1e3,
					Gamma2:  sc[1].Gamma,
				})
			}
		}
	}
	return res, nil
}

// MinGammaPoint returns the index of the sweep point with minimum Γ at s=1.
func (r *Fig3Result) MinGammaPoint() int {
	best := 0
	for i, pt := range r.Points {
		if pt.Gamma1 < r.Points[best].Gamma1 {
			best = i
		}
	}
	return best
}

// Ranges returns the observed (min, max) of T_M (ms, s=1) and Γ (s=1).
func (r *Fig3Result) Ranges() (tmMin, tmMax, gMin, gMax float64) {
	tmMin, gMin = r.Points[0].TM1ms, r.Points[0].Gamma1
	for _, pt := range r.Points {
		if pt.TM1ms < tmMin {
			tmMin = pt.TM1ms
		}
		if pt.TM1ms > tmMax {
			tmMax = pt.TM1ms
		}
		if pt.Gamma1 < gMin {
			gMin = pt.Gamma1
		}
		if pt.Gamma1 > gMax {
			gMax = pt.Gamma1
		}
	}
	return tmMin, tmMax, gMin, gMax
}

// Render writes the three sub-figures as ASCII scatter plots plus the
// summary statistics the paper quotes in Observations 1-3.
func (r *Fig3Result) Render(w io.Writer) {
	a := &Scatter{Title: "Fig. 3(a): register usage vs multiprocessor execution time (s=1)",
		XLabel: "T_M (ms)", YLabel: "R (kbit)"}
	b := &Scatter{Title: "Fig. 3(b): SEUs experienced vs T_M, all cores s=1",
		XLabel: "T_M (ms)", YLabel: "Γ"}
	c := &Scatter{Title: "Fig. 3(c): SEUs experienced vs T_M, all cores s=2",
		XLabel: "T_M (ms)", YLabel: "Γ"}
	for _, pt := range r.Points {
		a.Add(pt.TM1ms, pt.RKb, '*')
		b.Add(pt.TM1ms, pt.Gamma1, '*')
		c.Add(pt.TM2ms, pt.Gamma2, '*')
	}
	a.Render(w)
	fmt.Fprintln(w)
	b.Render(w)
	fmt.Fprintln(w)
	c.Render(w)

	var sumTMRatio, sumGRatio float64
	for _, pt := range r.Points {
		sumTMRatio += pt.TM2ms / pt.TM1ms
		sumGRatio += pt.Gamma2 / pt.Gamma1
	}
	n := float64(len(r.Points))
	tmMin, tmMax, gMin, gMax := r.Ranges()
	mid := r.Points[r.MinGammaPoint()]
	fmt.Fprintf(w, "\n%d mappings. T_M range %.0f..%.0f ms, Γ range %.3g..%.3g (s=1).\n",
		len(r.Points), tmMin, tmMax, gMin, gMax)
	fmt.Fprintf(w, "Observation 1: R %.0f..%.0f kbit, anti-correlated with T_M (locality vs duplication).\n",
		r.minR(), r.maxR())
	fmt.Fprintf(w, "Observation 2: Γ minimum at T_M = %.0f ms; at equal T_M, forced-duplication mappings pay up to %.0f%% more Γ (see EXPERIMENTS.md on the paper's interior-minimum claim).\n",
		mid.TM1ms, r.DuplicationPenaltyPct())
	fmt.Fprintf(w, "Observation 3: scaling 1→2 multiplies T_M by %.2f and Γ by %.2f (paper: 2 and ≈2.5).\n",
		sumTMRatio/n, sumGRatio/n)
}

func (r *Fig3Result) minR() float64 {
	m := r.Points[0].RKb
	for _, pt := range r.Points {
		if pt.RKb < m {
			m = pt.RKb
		}
	}
	return m
}

func (r *Fig3Result) maxR() float64 {
	m := r.Points[0].RKb
	for _, pt := range r.Points {
		if pt.RKb > m {
			m = pt.RKb
		}
	}
	return m
}

// DuplicationPenaltyPct quantifies the register-duplication mechanism behind
// the paper's trade-off: among mappings in the lowest T_M decile, the spread
// between the worst and best Γ, in percent. A large value means mapping
// choice matters even at equal performance — the room the soft error-aware
// mapper exploits.
func (r *Fig3Result) DuplicationPenaltyPct() float64 {
	tmMin, tmMax, _, _ := r.Ranges()
	cut := tmMin + (tmMax-tmMin)/10
	lo, hi := 0.0, 0.0
	for _, pt := range r.Points {
		if pt.TM1ms > cut {
			continue
		}
		if lo == 0 || pt.Gamma1 < lo {
			lo = pt.Gamma1
		}
		if pt.Gamma1 > hi {
			hi = pt.Gamma1
		}
	}
	if lo == 0 {
		return 0
	}
	return (hi - lo) / lo * 100
}

// CSVTo writes the sweep points as CSV (one row per mapping).
func (r *Fig3Result) CSVTo(w io.Writer) {
	t := &Table{Headers: []string{"tm_s1_ms", "r_kbit", "gamma_s1", "tm_s2_ms", "gamma_s2"}}
	for _, pt := range r.Points {
		t.AddRow(
			fmt.Sprintf("%.3f", pt.TM1ms),
			fmt.Sprintf("%.3f", pt.RKb),
			fmt.Sprintf("%.6g", pt.Gamma1),
			fmt.Sprintf("%.3f", pt.TM2ms),
			fmt.Sprintf("%.6g", pt.Gamma2))
	}
	t.CSV(w)
}
