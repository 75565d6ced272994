package core

import (
	"errors"
	"fmt"
	"math"

	"ipso/internal/stats"
)

// This file makes the package model-agnostic: IPSO (Eqs. 9-17) becomes
// one member of a zoo of pluggable scaling models behind the
// ScalingModel interface, fitted by the same Levenberg-Marquardt solver
// and compared by information criteria. The paper's own claim is
// comparative — IPSO subsumes Amdahl and Gustafson and explains regimes
// they cannot — and the only honest way to operationalize that claim is
// to fit the competitors on equal footing and let the data select.

// Param describes one free parameter of a scaling model: its name, the
// box bounds the fit clamps to, the solver's initial guess, and the
// current (fitted or installed) value.
type Param struct {
	Name     string
	Min, Max float64
	Init     float64
	Value    float64
}

// FitReport is the per-model outcome of ScalingModel.Fit: the solver's
// residual and convergence report on the sweep the model was fitted to.
type FitReport struct {
	SSE       float64
	Iters     int
	Converged bool
}

// ScalingModel is a named parametric speedup model S(n), n >= 1. A model
// is stateful: Fit installs the best parameter vector found and further
// calls evaluate the fitted curve. All zoo members normalize S(1) ≈ 1.
type ScalingModel interface {
	// Name is the stable identifier ("ipso", "usl", "amdahl", ...).
	Name() string
	// Params returns the parameter vector with bounds, initial guesses
	// and current values.
	Params() []Param
	// SetParams installs a parameter vector (e.g. loaded from disk).
	// Values are clamped into the declared bounds; the length must match.
	SetParams(values []float64) error
	// Speedup evaluates S(n) at the current parameters.
	Speedup(n float64) (float64, error)
	// Predict returns the predicted response time at degree n of the
	// n = 1-equivalent workload: T(n) = t1 / S(n). (Speedup is defined
	// against the n = 1 reference, so workload growth for fixed-time
	// runs is already inside S.)
	Predict(t1, n float64) (float64, error)
	// OptimalN returns the speedup-maximizing degree on [1, maxN] —
	// analytically where the model admits it (USL's √((1−σ)/κ)),
	// numerically otherwise. For monotone models it is maxN.
	OptimalN(maxN int) (nStar int, sStar float64, err error)
	// Fit estimates the parameters from a measured sweep by nonlinear
	// least squares, starting from the declared initial guesses.
	Fit(ns, speedups []float64) (FitReport, error)
}

// zooModel is the shared implementation of every zoo member: a named
// parameter vector plus a speedup function over it. An optional optimal
// hook supplies an analytic optimal-n; absent, OptimalN grid-searches.
type zooModel struct {
	name    string
	params  []Param
	eval    func(v []float64, n float64) float64
	optimal func(v []float64, maxN int) (int, float64)
}

func (m *zooModel) Name() string { return m.name }

func (m *zooModel) Params() []Param {
	out := make([]Param, len(m.params))
	copy(out, m.params)
	return out
}

func (m *zooModel) values() []float64 {
	v := make([]float64, len(m.params))
	for i, p := range m.params {
		v[i] = p.Value
	}
	return v
}

// clamp boxes a raw solver vector into the declared bounds, writing the
// result into dst (len(v) long) and returning it.
func (m *zooModel) clamp(dst, v []float64) []float64 {
	for i := range v {
		dst[i] = math.Min(math.Max(v[i], m.params[i].Min), m.params[i].Max)
	}
	return dst
}

func (m *zooModel) SetParams(values []float64) error {
	if len(values) != len(m.params) {
		return fmt.Errorf("core: %s takes %d parameters, got %d", m.name, len(m.params), len(values))
	}
	for i, v := range values {
		if math.IsNaN(v) {
			return fmt.Errorf("core: %s parameter %s is NaN", m.name, m.params[i].Name)
		}
	}
	for i, v := range m.clamp(make([]float64, len(values)), values) {
		m.params[i].Value = v
	}
	return nil
}

func (m *zooModel) Speedup(n float64) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("core: scale-out degree n = %g must be >= 1", n)
	}
	s := m.eval(m.values(), n)
	if math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
		return 0, fmt.Errorf("core: %s speedup not positive-finite at n=%g (params %v)", m.name, n, m.values())
	}
	return s, nil
}

func (m *zooModel) Predict(t1, n float64) (float64, error) {
	if t1 <= 0 {
		return 0, fmt.Errorf("core: baseline time %g must be positive", t1)
	}
	s, err := m.Speedup(n)
	if err != nil {
		return 0, err
	}
	return t1 / s, nil
}

func (m *zooModel) OptimalN(maxN int) (int, float64, error) {
	if maxN < 1 {
		return 0, 0, fmt.Errorf("core: maxN = %d must be >= 1", maxN)
	}
	if m.optimal != nil {
		nStar, _ := m.optimal(m.values(), maxN)
		// Evaluate through Speedup so the analytic argmax and the
		// reported maximum always agree with the model itself.
		s, err := m.Speedup(float64(nStar))
		if err != nil {
			return 0, 0, err
		}
		return nStar, s, nil
	}
	bestN, bestS := 1, math.Inf(-1)
	for n := 1; n <= maxN; n++ {
		s, err := m.Speedup(float64(n))
		if err != nil {
			return 0, 0, err
		}
		if s > bestS {
			bestN, bestS = n, s
		}
	}
	return bestN, bestS, nil
}

func (m *zooModel) Fit(ns, speedups []float64) (FitReport, error) {
	if len(ns) != len(speedups) || len(ns) == 0 {
		return FitReport{}, fmt.Errorf("core: fit needs equal, nonempty sweeps (%d vs %d)", len(ns), len(speedups))
	}
	// A fully pinned model (e.g. phase-informed IPSO with η = 1) has
	// nothing to fit: score the curve as-is.
	if len(m.params) == 0 {
		sse := 0.0
		for i := range ns {
			r := speedups[i] - m.eval(nil, ns[i])
			sse += r * r
		}
		if math.IsNaN(sse) || math.IsInf(sse, 0) {
			return FitReport{}, fmt.Errorf("core: %s not finite on the sweep", m.name)
		}
		return FitReport{SSE: sse, Converged: true}, nil
	}
	p0 := make([]float64, len(m.params))
	for i, p := range m.params {
		p0[i] = p.Init
	}
	// The solver is unconstrained; the model function clamps, so
	// excursions outside the box evaluate at the boundary and the
	// returned vector is re-clamped before being installed. The solver
	// evaluates one vector at a time, so one scratch box serves the fit.
	box := make([]float64, len(m.params))
	clamped := func(v []float64, n float64) float64 { return m.eval(m.clamp(box, v), n) }
	res, err := stats.NonlinearFit(clamped, ns, speedups, p0, stats.NLSOptions{})
	if err != nil {
		return FitReport{}, fmt.Errorf("core: fit %s: %w", m.name, err)
	}
	if err := m.SetParams(res.Params); err != nil {
		return FitReport{}, err
	}
	return FitReport{SSE: res.SSE, Iters: res.Iters, Converged: res.Converged}, nil
}

// ModelFit is one zoo member's performance on a sweep: the fitted
// parameters, the residual, and the two selection scores.
type ModelFit struct {
	Name   string
	Params []Param
	FitReport
	// AICc is the small-sample Akaike information criterion
	// n·ln(SSE/n) + 2k + 2k(k+1)/(n−k−1); +Inf when the sweep has too
	// few points to score a k-parameter model.
	AICc float64
	// LOO is the root-mean-square leave-one-out prediction error: each
	// point is held out, the model is refitted, and the held-out
	// speedup is predicted. NaN when the sweep is too small to refit.
	LOO float64
	// Err is non-nil when the fit itself failed; the scores are then
	// meaningless and the model is excluded from selection.
	Err error
}

// ModelSelection is the outcome of fitting a zoo to one sweep.
type ModelSelection struct {
	// Fits holds one entry per candidate model, in zoo order.
	Fits []ModelFit
	// Best indexes the selected fit, or -1 when nothing fitted.
	Best int
}

// BestFit returns the selected fit; ok is false when no model fitted.
func (s ModelSelection) BestFit() (ModelFit, bool) {
	if s.Best < 0 || s.Best >= len(s.Fits) {
		return ModelFit{}, false
	}
	return s.Fits[s.Best], true
}

// sseFloor keeps AICc finite on exact synthetic data: below it, residual
// differences are numerical noise and parameter count should decide.
const sseFloor = 1e-18

// aicc scores a fit: lower is better. k counts free parameters.
func aicc(sse float64, n, k int) float64 {
	if n-k-1 <= 0 {
		return math.Inf(1)
	}
	meanSq := math.Max(sse/float64(n), sseFloor)
	return float64(n)*math.Log(meanSq) + float64(2*k) + float64(2*k*(k+1))/float64(n-k-1)
}

// looError computes the root-mean-square leave-one-out prediction error
// by refitting the model on each n−1 subset. It leaves the model fitted
// to the full sweep on return. NaN when the subsets cannot determine the
// parameters or any refit fails.
func looError(m ScalingModel, ns, speedups []float64) float64 {
	k := len(m.Params())
	if len(ns)-1 < k || len(ns) < 3 {
		return math.NaN()
	}
	subNs := make([]float64, 0, len(ns)-1)
	subSs := make([]float64, 0, len(ns)-1)
	sum, ok := 0.0, true
	for hold := range ns {
		subNs, subSs = subNs[:0], subSs[:0]
		for i := range ns {
			if i != hold {
				subNs = append(subNs, ns[i])
				subSs = append(subSs, speedups[i])
			}
		}
		if _, err := m.Fit(subNs, subSs); err != nil {
			ok = false
			break
		}
		pred, err := m.Speedup(ns[hold])
		if err != nil {
			ok = false
			break
		}
		r := pred - speedups[hold]
		sum += r * r
	}
	// Restore the full-sweep fit whatever happened above.
	if _, err := m.Fit(ns, speedups); err != nil {
		return math.NaN()
	}
	if !ok {
		return math.NaN()
	}
	return math.Sqrt(sum / float64(len(ns)))
}

// aiccTieband is the AICc difference below which two models are
// considered statistically indistinguishable (Burnham-Anderson's Δ < 2
// rule); within the band the leave-one-out error breaks the tie.
const aiccTieband = 2

// FitModels fits every candidate to the measured sweep, scores each by
// AICc and leave-one-out error, and selects the best: lowest AICc, with
// LOO breaking ties among models within the Δ < 2 band. Models whose fit
// fails are reported with Err set and excluded from selection. The sweep
// needs at least three strictly ascending degrees >= 1.
func FitModels(ns, speedups []float64, models []ScalingModel) (ModelSelection, error) {
	if len(models) == 0 {
		return ModelSelection{}, errors.New("core: no candidate models")
	}
	if len(ns) != len(speedups) || len(ns) < 3 {
		return ModelSelection{}, fmt.Errorf("core: model selection needs >= 3 paired points, have %d/%d", len(ns), len(speedups))
	}
	for i := range ns {
		if ns[i] < 1 || speedups[i] <= 0 {
			return ModelSelection{}, fmt.Errorf("core: invalid sweep point (n=%g, S=%g)", ns[i], speedups[i])
		}
		if i > 0 && ns[i] <= ns[i-1] {
			return ModelSelection{}, errors.New("core: sweep degrees must be strictly ascending")
		}
	}

	sel := ModelSelection{Fits: make([]ModelFit, len(models)), Best: -1}
	for i, m := range models {
		fit := ModelFit{Name: m.Name(), AICc: math.Inf(1), LOO: math.NaN()}
		rep, err := m.Fit(ns, speedups)
		if err != nil {
			fit.Err = err
			modelFitFailures.With(m.Name()).Inc()
		} else {
			fit.FitReport = rep
			fit.LOO = looError(m, ns, speedups)
			fit.Params = m.Params()
			fit.AICc = aicc(rep.SSE, len(ns), len(fit.Params))
			modelFits.With(m.Name()).Inc()
		}
		sel.Fits[i] = fit
	}

	for i, f := range sel.Fits {
		if f.Err != nil {
			continue
		}
		if sel.Best < 0 || f.AICc < sel.Fits[sel.Best].AICc {
			sel.Best = i
		}
	}
	if sel.Best >= 0 {
		// LOO tie-break inside the indistinguishability band.
		bestAICc := sel.Fits[sel.Best].AICc
		for i, f := range sel.Fits {
			if f.Err != nil || i == sel.Best || math.IsNaN(f.LOO) {
				continue
			}
			cur := sel.Fits[sel.Best].LOO
			if f.AICc <= bestAICc+aiccTieband && !math.IsNaN(cur) && f.LOO < cur {
				sel.Best = i
			}
		}
		modelSelected.With(sel.Fits[sel.Best].Name).Inc()
	}
	return sel, nil
}
