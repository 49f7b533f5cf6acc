"""Nonlinear least squares: a damped Gauss-Newton (Levenberg-Marquardt)
engine plus the spectrum-specific fit recipes (extinction line fits,
power-broadening sweeps, saturation curves).

One interference line serves fit_extinction (one trace, times a baseline)
and polarization.separate_components (a QWP-angle series): _line_terms,
_line_jacobian and _seed_triple give its terms, its five Jacobian columns
(the first three of them are the seed's basis) and its (A, B, psi) seed.

Lower bounds are enforced by a smooth log transform, so the curvature-based
standard errors stay meaningful at the solution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg   # numpy's LAPACK gufuncs; `import numpy` loads them

from .spectra import SpectrumTrace


class RankDeficientError(RuntimeError):
    """Raised when the fit problem is (numerically) under-determined."""


class NotConvergedError(RuntimeError):
    """Unused: no recipe raises it, since a FitResult's status says how the
    fit ended.  Kept only because perfbench's workloads still catch it."""


@dataclass
class Parameter:
    name: str
    value: float
    lo: float = -math.inf
    fixed: bool = False

    def __post_init__(self):
        if not self.lo <= self.value:
            raise ValueError(f"parameter {self.name}: init {self.value} outside bounds "
                             f"[{self.lo}, inf]")


@dataclass
class FitProblem:
    """residual(p) maps the full parameter vector (declared order, fixed
    entries included) to a residual vector.

    jacobian(p) returns the closed-form d residual / d p at the same vector:
    one row per residual entry, one column per declared parameter (fixed
    ones included).  minimize works on the free columns in Fortran order: a
    Fortran-ordered float array whose free columns lead is used without a
    copy, and then scaled in place, so return a fresh array from each call.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    params: list
    jacobian: Callable[[np.ndarray], np.ndarray]

    def free_indices(self):
        return [i for i, p in enumerate(self.params) if not p.fixed]


# LM engine settings
MAX_ITER = 500
XTOL = 1e-10        # relative cost decrease
GTOL = 1e-8         # gradient inf-norm
COND_MAX = 1e12     # normal-equations conditioning limit


@dataclass
class FitResult:
    params: dict
    errors: dict
    cost: float
    status: str              # converged | max_iter | rank_deficient
    iterations: int
    covariance: Optional[np.ndarray] = None
    param_order: list = field(default_factory=list)
    nfev: int = 0            # residual evaluations made by minimize
    njev: int = 0            # Jacobian evaluations made by minimize
    grad_norm: float = math.nan  # inf-norm of the internal gradient, last iteration
    cond: float = math.nan   # normal-matrix condition number, last iteration

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def to_json(self) -> str:
        return json.dumps(
            {
                "params": self.params,
                "errors": self.errors,
                "cost": self.cost,
                "status": self.status,
                "iterations": self.iterations,
                "nfev": self.nfev,
                "njev": self.njev,
                "grad_norm": self.grad_norm,
                "cond": self.cond if math.isfinite(self.cond) else None,
                "param_order": self.param_order,
                "covariance": None if self.covariance is None else self.covariance.tolist(),
            },
            indent=2,
        )

    def table(self) -> str:
        rows = [f"{'parameter':<14}{'value':>16}{'std error':>16}"]
        for k in self.params:
            e = self.errors.get(k, float("nan"))
            rows.append(f"{k:<14}{self.params[k]:>16.8g}{e:>16.3g}")
        rows.append(f"status: {self.status}  iterations: {self.iterations}  "
                    f"cost: {self.cost:.6g}")
        return "\n".join(rows)


# -- smooth bound transforms ------------------------------------------------

def _to_internal(p, lo):
    if math.isfinite(lo):
        return math.log(max(p - lo, 1e-300))
    return p


def _safe_exp(t):
    """exp(t), capped below overflow: a parameter with lower bound lo has
    external value lo + _safe_exp(t) and derivative _safe_exp(t)."""
    return math.exp(min(t, 700.0))


def _normal_matrix(J):
    """J^T J by BLAS gemm.  numpy sends J.T @ J to syrk, which rounds the
    last bits differently and moves every fit; a copy of J in its own memory
    order keeps gemm, its operand layout and the golden fit outputs."""
    return J.T @ J.copy(order="K")


def _solve(A, b):
    """np.linalg.solve(A, b) for a square float matrix and a vector, bit for
    bit, from the LAPACK gufunc it wraps: the invalid flag that the gufunc
    raises for a singular matrix is numpy's LinAlgError, as there."""
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            return _umath_linalg.solve1(A, b, signature="dd->d")
    except FloatingPointError:
        raise np.linalg.LinAlgError("Singular matrix") from None


def _eigh(A):
    """np.linalg.eigh(A) of a symmetric float matrix, bit for bit, from the
    LAPACK gufunc it wraps: (eigenvalues ascending, eigenvectors), and
    numpy's LinAlgError when the gufunc flags non-convergence."""
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            return _umath_linalg.eigh_lo(A, signature="d->dd")
    except FloatingPointError:
        raise np.linalg.LinAlgError("Eigenvalues did not converge") from None


def _inverse_and_cond(A):
    """The pseudo-inverse of the normal matrix A and lambda_max / lambda_min,
    from one eigendecomposition.  An eigenvalue <= 1e-14 lambda_max gets a
    zero inverse, as singular values do in pinv(A, rcond=1e-14); cond is inf
    when A is singular.  A matrix that is not finite gives nan and inf."""
    n = A.shape[0]
    if not np.isfinite(A).all():
        return np.full((n, n), np.nan), math.inf
    lam, vec = _eigh(A)
    lam = lam.tolist()   # a few eigenvalues: Python floats, the same IEEE arithmetic
    cond = lam[-1] / lam[0] if lam[0] > 0 else math.inf
    inv = [1.0 / x if x > 1e-14 * lam[-1] else 0.0 for x in lam]
    return (vec * inv) @ vec.T, cond


def minimize(problem: FitProblem) -> FitResult:
    """Levenberg-Marquardt minimization of the residual norm.

    Accepted steps never increase the cost.  The damping mu adds
    mu * diag(J^T J) to the normal matrix (Marquardt 1963): a rejected step
    restarts it at 1e-3 or multiplies it by 10, an accepted one by 0.25,
    until a decreasing step is found or the iteration budget runs out.  A
    relative cost change below XTOL ends the run converged, a rise (the
    cost's rounding floor) as well as a decrease.

    The reported cond is lambda_max / lambda_min of the normal matrix J^T J
    at the solution (internal coordinates; inf when it is singular or not
    finite); one eigendecomposition of that matrix gives it and the
    covariance.  The status reads conditioning in two more places: when no
    decreasing step exists (cond > COND_MAX then makes it rank_deficient,
    else converged), and, for a run that exhausts MAX_ITER, at every
    iteration (one above COND_MAX makes it rank_deficient instead of
    max_iter).  It raises only before iterating: RankDeficientError for fewer
    residuals than free parameters, ValueError for a non-finite residual or cost.
    """
    pars = problem.params
    free = problem.free_indices()
    nfree = len(free)
    if nfree == 0:
        raise ValueError("no free parameters")
    leading = free == list(range(nfree))

    full = np.array([p.value for p in pars], dtype=float).tolist()
    # (internal index, declared index, lower bound) of each bounded free parameter
    bounded = [(k, i, pars[i].lo) for k, i in enumerate(free) if math.isfinite(pars[i].lo)]

    def point(theta):
        """The external parameter vector at theta and d external / d
        internal, from one exp per bounded parameter: shared by the
        residual, the Jacobian's chain rule and the reported values."""
        t = theta.tolist()
        p = full.copy()
        if leading:
            p[:nfree] = t
        else:
            for k, i in enumerate(free):
                p[i] = t[k]
        scale = [1.0] * nfree
        for k, i, lo in bounded:
            scale[k] = e = _safe_exp(t[k])
            p[i] = lo + e
        return np.array(p), np.array(scale)

    nfev = 0
    njev = 0

    def residual(p):
        nonlocal nfev
        nfev += 1
        return np.asarray(problem.residual(p), dtype=float)

    def jacobian(p, scale):
        """The problem's Jacobian at p chained through the bound transforms
        into internal coordinates.  Its free columns are taken in Fortran
        order, the layout _normal_matrix's gemm and the fit outputs depend
        on: a view when they lead and are already in that order, else a
        copy."""
        nonlocal njev
        njev += 1
        J = np.asarray(problem.jacobian(p), dtype=float)
        J = np.asfortranarray(J[:, :nfree]) if leading else J[:, free]
        J *= scale
        return J

    theta = np.array([_to_internal(pars[i].value, pars[i].lo) for i in free])
    p, scale = point(theta)

    mu = 0.0
    status = "max_iter"
    it = 0
    grad_norm = math.nan
    normals = []  # each iteration's J^T J, for the conditioning checks

    # past the float range (a runaway, data near the float limit) inf and nan
    # are read as what they are: a residual or gradient that is not finite
    # fails its test, a trial cost that is not finite is rejected, such a
    # normal matrix has cond inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = residual(p)
        if r.size < nfree:
            raise RankDeficientError(
                f"residual dimension {r.size} < free parameter count {nfree}"
            )
        if not np.isfinite(r).all():
            raise ValueError("initial residual is not finite")
        cost = float(np.sum(r * r))
        if cost == math.inf:
            raise ValueError("initial cost is not finite")
        for it in range(1, MAX_ITER + 1):
            J = jacobian(p, scale)
            g = J.T @ r
            gl = g.tolist()   # np.abs(g).max(), nan included
            grad_norm = math.nan if any(map(math.isnan, gl)) else max(map(abs, gl))
            A = _normal_matrix(J)
            normals.append(A)
            if grad_norm < GTOL:
                status = "converged"
                break
            diag = None  # the damping scale: built at the first damped step
            neg_g = -g

            accepted = False
            for _ in range(50):
                # damping on the diagonal only, so an inf there stays off it
                damped = A
                if mu != 0:
                    if diag is None:
                        diag = A.diagonal()
                        diag = np.where(diag <= 0, 1.0, diag)
                    damped = A.copy()
                    damped.flat[::nfree + 1] += mu * diag
                try:
                    step = _solve(damped, neg_g)
                except np.linalg.LinAlgError:
                    mu = max(mu * 10.0, 1e-3)
                    continue
                t_new = theta + step
                # a step out of the model's domain is rejected by its cost: a
                # non-finite residual makes it nan or inf
                p_new, s_new = point(t_new)
                r_new = residual(p_new)
                c_new = float(np.add.reduce(r_new * r_new))  # np.sum's bits
                rel = (cost - c_new) / max(cost, 1e-300)
                if c_new <= cost and c_new < math.inf:
                    theta, p, scale, r, cost = t_new, p_new, s_new, r_new, c_new
                    mu *= 0.25
                    if mu < 1e-14:
                        mu = 0.0  # undamped Gauss-Newton while steps keep working
                    accepted = True
                    if rel < XTOL:
                        status = "converged"
                    break
                if -rel < XTOL:
                    status = "converged"  # a rise below XTOL: the cost's rounding floor
                    break
                mu = max(mu * 10.0, 1e-3)
            if status == "converged":
                break
            if not accepted:
                # no decreasing step exists: a local minimum, unless degenerate
                status = "rank_deficient" if _inverse_and_cond(A)[1] > COND_MAX else "converged"
                break

        if status == "max_iter" and any(_inverse_and_cond(A)[1] > COND_MAX for A in normals):
            status = "rank_deficient"

        # curvature-based errors at the solution, mapped to external coordinates
        A = _normal_matrix(jacobian(p, scale))
        dof = max(r.size - nfree, 1)
        inverse, cond = _inverse_and_cond(A)
        cov = inverse * (cost / dof) * np.outer(scale, scale)

    params = {q.name: float(p[i]) for i, q in enumerate(pars)}
    errors = {}
    for k, i in enumerate(free):
        v = cov[k, k]
        errors[pars[i].name] = float(math.sqrt(v)) if v >= 0 else float("nan")
    for q in pars:
        if q.fixed:
            errors[q.name] = 0.0
    return FitResult(
        params=params,
        errors=errors,
        cost=cost,
        status=status,
        iterations=it,
        nfev=nfev,
        njev=njev,
        grad_norm=grad_norm,
        cond=cond,
        covariance=cov,
        param_order=[pars[i].name for i in free],
    )


# ---------------------------------------------------------------------------
# Fit recipes
# ---------------------------------------------------------------------------

def _cache_last(terms):
    """terms(p), kept for the last p (by its bytes): LM takes the Jacobian
    where it last evaluated the residual, and the two share the terms."""
    key = value = None

    def cached(p):
        nonlocal key, value
        k = p.tobytes()
        if k != key:
            key, value = k, terms(p)
        return value

    return cached


def _line_terms(grid, k_a, k_b, a, b, psi, gamma, center):
    """(d, lor, Re u, Im u, quad, m) of the line 1 + lor m: d = grid -
    center, lor = 1 / (d^2 + gamma^2 / 4), u = e^{i psi} k_b, quad = d Re u
    + gamma/2 Im u and m = a k_a - b quad.  k_a = k_b = 1 for a trace seen
    directly, else the detection chain's Jones factors at each pixel."""
    d = grid - center
    lor = 1.0 / (d * d + gamma * gamma / 4.0)
    u = complex(math.cos(psi), math.sin(psi)) * k_b
    ur, ui = u.real, u.imag
    quad = d * ur + gamma / 2.0 * ui
    return d, lor, ur, ui, quad, a * k_a - b * quad


def _line_jacobian(jac, scale, terms, k_a, b, gamma):
    """jac with its (a, b, psi, gamma, center) columns set to the
    derivatives of scale (1 + lor m), scale held fixed.  A buffer of three
    columns gets the (a, b, psi) ones only, the basis of _seed_triple.  Each
    column is computed in place, with the rounding of
        scale k_a,  -scale quad,  scale b (d Im u - gamma/2 Re u),
        -scale (gamma/2 lor m + b/2 Im u),  scale (2 d lor m + b Re u)
    evaluated left to right (negation and the order of two factors change
    no bits)."""
    d, lor, ur, ui, quad, m = terms
    half = gamma / 2.0
    np.multiply(scale, k_a, out=jac[:, 0])
    col = jac[:, 1]
    np.negative(scale, out=col)
    col *= quad
    col = jac[:, 2]
    np.multiply(d, ui, out=col)
    col -= half * ur
    np.multiply(scale * b, col, out=col)
    if jac.shape[1] == 3:
        return jac
    col = jac[:, 3]
    np.multiply(half, lor, out=col)
    col *= m
    col += b / 2.0 * ui
    col *= scale
    np.negative(col, out=col)
    col = jac[:, 4]
    np.multiply(d, 2.0, out=col)
    col *= lor
    col *= m
    col += b * ur
    col *= scale
    return jac


def _seed_triple(basis, target, floor):
    """(a, b, psi) from one least-squares solve.  At fixed (gamma, center)
    the line is linear in (a, b cos psi, b sin psi), and the a, b and psi
    columns of its Jacobian at b = 1, psi = 0 are that basis; a and b are
    held at floor or above."""
    coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
    return (max(float(coef[0]), floor), max(math.hypot(coef[1], coef[2]), floor),
            math.atan2(coef[2], coef[1]))


def _transmission(terms, a, b, baseline):
    """baseline (1 + a lor - b lor quad): one trace's line from its terms."""
    _, lor, _, _, quad, _ = terms
    return baseline * (1.0 + a * lor - b * lor * quad)


def extinction_fit_model(grid, gamma, a, b, psi, center, baseline):
    """Interference transmission model with an effective (already power
    broadened) width gamma."""
    return _transmission(_line_terms(grid, 1.0, 1.0, a, b, psi, gamma, center), a, b, baseline)


def _median(x):
    """np.median of a 1-D array, bit for bit, from one partition (np.median's
    nan check imports numpy.ma, ~14 ms in a fresh process), summed as Python
    floats: a sum beyond the float range is inf, not a warning."""
    lo, hi = (x.size - 1) // 2, x.size // 2
    part = np.partition(x, (lo, hi))
    return (float(part[lo]) + float(part[hi])) / 2.0


# points a trace needs to seed its line: the width of the smoothing kernel
_LINE_SEED_POINTS = 3


def _init_line(trace: SpectrumTrace):
    """Heuristic (center, gamma, baseline): extremum of the smoothed trace
    locates the line, half-width at half extremum seeds gamma.  A trace of
    fewer than _LINE_SEED_POINTS points is a ValueError."""
    g, v = trace.grid, trace.values
    if v.size < _LINE_SEED_POINTS:
        raise ValueError(f"trace has {v.size} points, too few to seed the line "
                         f"(at least {_LINE_SEED_POINTS})")
    base = _median(v)
    width = max(_LINE_SEED_POINTS, v.size // 50)
    sm = np.convolve(v - base, np.full(width, 1.0 / width), mode="same")
    mag = np.abs(sm)
    i0 = int(np.argmax(mag))
    center = float(g[i0])
    depth = float(sm[i0])
    half = np.count_nonzero(mag > abs(depth) / 2.0)
    step = float(np.add.reduce(np.diff(g)) / (g.size - 1))   # np.mean's bits
    gamma = max(half * step, 2.0 * step)
    baseline = base if base > 0 else 1.0
    return center, gamma, baseline


def _refine_line(trace: SpectrumTrace, center: float, gamma: float):
    """(center, gamma) of the unit-baseline line 1 + (alpha + beta d) /
    (d^2 + w), d = grid - center and w = gamma^2 / 4, refined from a seed by
    one weighted linear solve (Sanathanan & Koerner 1963).

    Multiplied by its denominator the line is linear in its unknowns: with
    u = values - 1, x the grid offset from the seed centre in units of
    h = gamma / 2 and c the centre's offset in the same units,
    u x^2 = 2c (u x) - (c^2 + w / h^2) u + alpha' + beta' x.
    Rows weighted by 1 / (x^2 + 1), the seed's denominator, make this
    equation error approximate the residual.  Returns the seed when the
    solve is singular or not finite, or gives w <= 0."""
    h = gamma / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        x = (trace.grid - center) / h
        u = trace.values - 1.0
        wt = 1.0 / (x * x + 1.0)
        rows = np.array([u * x, u, np.ones_like(x), x]) * wt
        try:
            # the scaled basis is well conditioned (cond ~ 10), so its normal
            # equations lose little to a QR solve and take half the time
            coef = _solve(rows @ rows.T, rows @ (u * x * x * wt))
        except np.linalg.LinAlgError:
            return center, gamma
    shift = 0.5 * float(coef[0])
    w = -float(coef[1]) - shift * shift   # in units of h^2
    if not (math.isfinite(shift) and w > 0.0):
        return center, gamma
    return center + h * shift, gamma * math.sqrt(w)


def fit_extinction(
    data: SpectrumTrace,
    init: Optional[dict] = None,
    fixed: Sequence[str] = (),
) -> FitResult:
    """Fit {A, B, psi, gamma, center, baseline} to a transmission trace:
    the line of separate_components with k_A = k_B = 1, times a baseline."""
    names = ("A", "B", "psi", "gamma", "center", "baseline")
    nfree = sum(name not in fixed for name in names)
    if data.grid.size < nfree:
        raise ValueError(
            f"trace has {data.grid.size} points, fewer than the {nfree} free parameters"
        )
    terms = _cache_last(lambda p: _line_terms(data.grid, 1.0, 1.0, *p[:5]))

    def residual(p):
        a, b, _, _, _, baseline = p
        return _transmission(terms(p), a, b, baseline) - data.values

    def jacobian(p):
        _, b, _, gamma, _, baseline = p
        t = terms(p)
        lor, m = t[1], t[5]
        jac = np.empty((data.grid.size, 6), order="F")  # minimize's layout: no copy
        _line_jacobian(jac, baseline * lor, t, 1.0, b, gamma)
        jac[:, 5] = 1.0 + lor * m                        # baseline
        return jac

    # gamma/center/baseline from the grid heuristic, then (A, B, psi) from
    # the Jacobian of the unit-baseline line
    center0, gamma0, base0 = _init_line(data)
    lows = (0.0, 0.0, -math.inf, 1e-12, -math.inf, 1e-12)
    if data.grid[-1] - data.grid[0] < 3.0 * gamma0:
        raise ValueError("trace must cover at least three linewidths")
    if base0 < lows[5] and "baseline" not in (init or {}):
        raise ValueError(f"trace median {base0:g} is below the baseline floor "
                         f"{lows[5]:g}: rescale the trace")
    seed = terms(np.array([0.0, 1.0, 0.0, gamma0, center0, 1.0]))
    basis = _line_jacobian(np.empty((data.grid.size, 3), order="F"), seed[1], seed,
                           1.0, 1.0, gamma0)   # scale 1 * lor: lor's bits
    with np.errstate(over="ignore"):
        target = data.values / base0 - 1.0
    if not np.isfinite(target).all():
        raise ValueError("trace values exceed the float range relative to their median")
    a0, b0, psi0 = _seed_triple(basis, target, 1e-9)
    start = dict(zip(names, (a0, b0, psi0, gamma0, center0, base0)), **(init or {}))
    pars = [Parameter(name, start[name], lo=lo, fixed=name in fixed)
            for name, lo in zip(names, lows)]
    return minimize(FitProblem(residual, pars, jacobian))


def fit_linewidth_vs_power(spectra: Sequence[tuple]):
    """From (power, SpectrumTrace) pairs, extract per-power FWHM and fit
    FWHM(P) = gamma*sqrt(1 + P/P_sat).

    Returns (table, result): (power, fwhm, fwhm_err) rows and the {gamma,
    p_sat} fit, or the rows before the first line fit that does not converge
    and that fit.  Too few, negative or too close powers raise before fitting.
    """
    if len(spectra) < 3:
        raise RankDeficientError("need spectra at >= 3 powers")
    given = [float(power) for power, _ in spectra]
    if min(given) < 0:
        raise ValueError(f"power must be >= 0, got {min(given):g}")
    # as Python floats: a span beyond the float range is inf, not a warning
    if max(given) / max(min(given), 1e-300) < 3.0:
        raise RankDeficientError("power span too small to separate gamma and P_sat")
    table = []
    for power, tr in spectra:
        try:
            r = fit_extinction(tr)
        except ValueError as exc:
            raise ValueError(f"trace at power {power}: {exc}") from exc
        if not r.converged:
            return table, r
        table.append((float(power), r.params["gamma"], r.errors["gamma"]))
    powers = np.array(given)
    fwhm = np.array([t[1] for t in table])

    pars = [
        Parameter("gamma", float(fwhm.min()), lo=1e-12),
        Parameter("p_sat", _median(powers), lo=1e-300),
    ]

    def residual(p):
        gamma, p_sat = p
        return gamma * np.sqrt(1.0 + powers / p_sat) - fwhm

    def jacobian(p):
        gamma, p_sat = p
        root = np.sqrt(1.0 + powers / p_sat)
        return np.column_stack([root, -gamma * powers / (2.0 * p_sat * p_sat * root)])

    res = minimize(FitProblem(residual, pars, jacobian))
    return table, res


def fit_saturation_curves(
    powers: np.ndarray,
    coherent_rates: np.ndarray,
    total_rates: np.ndarray,
) -> FitResult:
    """Joint fit of a*S/(1+S)^2 (coherent) and b*S/(1+S) (total) with a
    shared saturation power: S = P/P_sat.  A negative power is a
    ValueError; the span in decades is taken over the positive powers."""
    powers = np.asarray(powers, float)
    coherent_rates = np.asarray(coherent_rates, float)
    total_rates = np.asarray(total_rates, float)
    if (powers < 0).any():
        raise ValueError(f"power must be >= 0, got {powers.min():g}")
    positive = powers[powers > 0]
    # as Python floats, a span or seed beyond the float range is inf, not a warning
    if positive.size == 0 or float(positive.max()) / float(positive.min()) < 100.0:
        raise RankDeficientError("need >= 2 decades of power around P_sat")

    p_sat0 = float(powers[np.argmax(coherent_rates)])
    pars = [
        Parameter("p_sat", p_sat0, lo=1e-300),
        Parameter("a", 4.0 * float(coherent_rates.max()), lo=1e-300),
        Parameter("b", float(total_rates.max()), lo=1e-300),
    ]

    def residual(p):
        p_sat, a, b = p
        s = powers / p_sat
        rc = a * s / (1.0 + s) ** 2 - coherent_rates
        rt = b * s / (1.0 + s) - total_rates
        return np.concatenate([rc, rt])

    def jacobian(p):
        # rows: the coherent channel, then the total one; d s / d p_sat = -s / p_sat
        p_sat, a, b = p
        s = powers / p_sat
        n = s.size
        jac = np.zeros((2 * n, 3), order="F")
        jac[:n, 0] = -a * s * (1.0 - s) / (p_sat * (1.0 + s) ** 3)
        jac[n:, 0] = -b * s / (p_sat * (1.0 + s) ** 2)
        jac[:n, 1] = s / (1.0 + s) ** 2
        jac[n:, 2] = s / (1.0 + s)
        return jac

    return minimize(FitProblem(residual, pars, jacobian))
