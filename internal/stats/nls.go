package stats

import (
	"fmt"
	"math"
)

// ModelFunc is a parametric curve y = f(params, x) fitted by NonlinearFit.
type ModelFunc func(params []float64, x float64) float64

// NLSOptions configures the Levenberg-Marquardt solver.
type NLSOptions struct {
	MaxIter int     // maximum iterations (default 200)
	Tol     float64 // relative SSE improvement tolerance (default 1e-12)
	Lambda0 float64 // initial damping (default 1e-3)
}

func (o NLSOptions) withDefaults() NLSOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	if o.Lambda0 <= 0 {
		o.Lambda0 = 1e-3
	}
	return o
}

// NLSResult is the outcome of a nonlinear least-squares fit, including
// the solver's convergence report: how many Levenberg-Marquardt
// iterations were spent and whether the relative-improvement tolerance
// was actually reached (as opposed to stalling or exhausting MaxIter).
// Every fit is also exported to the process obs registry (stats_nls_*)
// so fit health is scrapeable from /metrics.
type NLSResult struct {
	Params []float64
	SSE    float64 // sum of squared residuals
	Iters  int
	// Converged reports that the solver stopped because no further
	// improvement was possible: the relative SSE improvement dropped
	// below NLSOptions.Tol, or the damping search stalled at a local
	// minimum. False means the iteration budget (MaxIter) ran out first —
	// the parameters are the best found, but the fit should be treated
	// as suspect and surfaced to the caller.
	Converged bool
}

// NonlinearFit minimizes Σ (ys[i] − f(p, xs[i]))² over p using the
// Levenberg-Marquardt algorithm with a forward-difference Jacobian,
// starting from initial parameters p0.
//
// Section V uses nonlinear regression to produce the matched curves for
// the Collaborative Filtering data (Fig. 8) and the Spark speedup surfaces
// (Figs. 9-10); this is that solver.
func NonlinearFit(f ModelFunc, xs, ys, p0 []float64, opts NLSOptions) (NLSResult, error) {
	if len(xs) != len(ys) {
		return NLSResult{}, fmt.Errorf("%w: len(xs)=%d len(ys)=%d", ErrBadFit, len(xs), len(ys))
	}
	if len(xs) < len(p0) {
		return NLSResult{}, fmt.Errorf("%w: %d points cannot determine %d parameters", ErrBadFit, len(xs), len(p0))
	}
	if len(p0) == 0 {
		return NLSResult{}, fmt.Errorf("%w: no parameters", ErrBadFit)
	}
	opts = opts.withDefaults()

	p := make([]float64, len(p0))
	copy(p, p0)
	m, np := len(xs), len(p)

	// Every buffer the iterations need is allocated once per call:
	// residuals (current and candidate, swapped on acceptance), the
	// Jacobian, the normal equations and the damped system the solver
	// eliminates in place.
	r, rNew := make([]float64, m), make([]float64, m)
	jac := rows(make([]float64, m*np), m, np)
	jtj, a := rows(make([]float64, np*np), np, np), rows(make([]float64, np*np), np, np)
	jtr, cand := make([]float64, np), make([]float64, np)
	sol := newLinearWorkspace(np)

	residuals := func(p, r []float64) float64 {
		sse := 0.0
		for i := range xs {
			r[i] = ys[i] - f(p, xs[i])
			sse += r[i] * r[i]
		}
		return sse
	}

	sse := residuals(p, r)
	if math.IsNaN(sse) || math.IsInf(sse, 0) {
		return NLSResult{}, fmt.Errorf("%w: model not finite at initial parameters", ErrBadFit)
	}
	lambda := opts.Lambda0

	iters := 0
	for ; iters < opts.MaxIter; iters++ {
		// Forward-difference Jacobian of the model (not the residual):
		// J[i][j] = ∂f(p, x_i)/∂p_j.
		for j := 0; j < np; j++ {
			h := 1e-7 * math.Max(1, math.Abs(p[j]))
			pj := p[j]
			p[j] = pj + h
			for i := range xs {
				jac[i][j] = (f(p, xs[i]) - (ys[i] - r[i])) / h
			}
			p[j] = pj
		}

		// Normal equations: (JᵀJ + λ·diag(JᵀJ))·Δ = Jᵀr.
		for j := 0; j < np; j++ {
			for k := 0; k <= j; k++ {
				s := 0.0
				for i := 0; i < m; i++ {
					s += jac[i][j] * jac[i][k]
				}
				jtj[j][k] = s
			}
			s := 0.0
			for i := 0; i < m; i++ {
				s += jac[i][j] * r[i]
			}
			jtr[j] = s
		}
		for j := 0; j < np; j++ {
			for k := j + 1; k < np; k++ {
				jtj[j][k] = jtj[k][j]
			}
		}

		improved := false
		for attempt := 0; attempt < 30; attempt++ {
			// solveLinearSystem permutes a's rows, so every row is
			// rewritten from jtj before each attempt.
			for j := range a {
				copy(a[j], jtj[j])
				a[j][j] += lambda * math.Max(jtj[j][j], 1e-12)
			}
			delta, ok := sol.solve(a, jtr)
			if ok {
				for j := range p {
					cand[j] = p[j] + delta[j]
				}
				sseNew := residuals(cand, rNew)
				if !math.IsNaN(sseNew) && sseNew < sse {
					rel := (sse - sseNew) / math.Max(sse, 1e-300)
					copy(p, cand)
					r, rNew = rNew, r
					sse = sseNew
					lambda = math.Max(lambda*0.3, 1e-12)
					improved = true
					if rel < opts.Tol {
						return reportNLS(NLSResult{Params: p, SSE: sse, Iters: iters + 1, Converged: true}), nil
					}
					break
				}
			}
			lambda *= 10
			if lambda > 1e12 {
				break
			}
		}
		if !improved {
			break
		}
	}
	// Reaching here means either a damping stall (a local minimum to
	// machine precision — converged in practice) or MaxIter exhaustion.
	return reportNLS(NLSResult{Params: p, SSE: sse, Iters: iters, Converged: iters < opts.MaxIter}), nil
}

// rows slices a flat n·cols buffer into n row slices of cols each.
func rows(buf []float64, n, cols int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = buf[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out
}

// SolveLinear solves the dense system a·x = b by Gaussian elimination
// with partial pivoting. It returns an error for singular or malformed
// systems; a and b are left untouched.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty system", ErrBadFit)
	}
	ac := make([][]float64, n)
	for i := range ac {
		if len(a[i]) != n {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrBadFit, i, len(a[i]), n)
		}
		ac[i] = make([]float64, n)
		copy(ac[i], a[i])
	}
	x, ok := solveLinearSystem(ac, b)
	if !ok {
		return nil, fmt.Errorf("%w: singular system", ErrBadFit)
	}
	return x, nil
}

// solveLinearSystem solves a·x = b by Gaussian elimination with partial
// pivoting. It reports false for singular systems. a is modified.
func solveLinearSystem(a [][]float64, b []float64) ([]float64, bool) {
	return newLinearWorkspace(len(b)).solve(a, b)
}

// linearWorkspace holds the solution and right-hand-side buffers of
// repeated n×n solves, so an iterative caller allocates them once.
type linearWorkspace struct {
	x, rhs []float64
}

func newLinearWorkspace(n int) *linearWorkspace {
	return &linearWorkspace{x: make([]float64, n), rhs: make([]float64, n)}
}

// solve is solveLinearSystem into the workspace: the returned slice is
// the workspace's and is overwritten by the next solve.
func (ws *linearWorkspace) solve(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	x, rhs := ws.x, ws.rhs
	copy(rhs, b)
	for col := 0; col < n; col++ {
		pivot := col
		for row := col + 1; row < n; row++ {
			if math.Abs(a[row][col]) > math.Abs(a[pivot][col]) {
				pivot = row
			}
		}
		if math.Abs(a[pivot][col]) < 1e-300 {
			return nil, false
		}
		a[col], a[pivot] = a[pivot], a[col]
		rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		inv := 1 / a[col][col]
		for row := col + 1; row < n; row++ {
			factor := a[row][col] * inv
			if factor == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[row][k] -= factor * a[col][k]
			}
			rhs[row] -= factor * rhs[col]
		}
	}
	for row := n - 1; row >= 0; row-- {
		s := rhs[row]
		for k := row + 1; k < n; k++ {
			s -= a[row][k] * x[k]
		}
		x[row] = s / a[row][row]
	}
	return x, true
}

// FitHyperbolic fits y = a/x + b, the shape the paper uses for the
// Collaborative Filtering split-phase time E[max{Tp,i(n)}] (Fig. 8a):
// the fixed-size parallel work divides by n while a constant per-task
// overhead remains. The fit is linear in (1/x, y) so it is solved exactly.
func FitHyperbolic(xs, ys []float64) (a, b float64, err error) {
	inv := make([]float64, len(xs))
	for i, x := range xs {
		if x == 0 {
			return 0, 0, fmt.Errorf("%w: x must be nonzero", ErrBadFit)
		}
		inv[i] = 1 / x
	}
	lin, err := Linear(inv, ys)
	if err != nil {
		return 0, 0, err
	}
	return lin.Slope, lin.Intercept, nil
}
