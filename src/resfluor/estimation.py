"""Nonlinear least squares: a damped Gauss-Newton (Levenberg-Marquardt)
engine plus the spectrum-specific fit recipes (extinction line fits,
power-broadening sweeps, saturation curves).

Lower bounds are enforced by a smooth log transform, so the curvature-based
standard errors stay meaningful at the solution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .spectra import SpectrumTrace


class RankDeficientError(RuntimeError):
    """Raised when the fit problem is (numerically) under-determined."""


class NotConvergedError(RuntimeError):
    """Raised by recipes that require convergence; carries the last FitResult."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


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


def _cond(A):
    """lambda_max / lambda_min of the normal matrix A; inf when A is
    singular or not finite."""
    if np.isfinite(A).all():
        lam = np.linalg.eigvalsh(A)
        if lam[0] > 0:
            return float(lam[-1] / lam[0])
    return math.inf


def minimize(problem: FitProblem) -> FitResult:
    """Levenberg-Marquardt minimization of the residual norm.

    Accepted steps never increase the cost; damping grows until a
    decreasing step is found or the iteration budget runs out.

    The reported cond is lambda_max / lambda_min of the last iteration's
    normal matrix J^T J (internal coordinates; inf when it is singular or
    not finite).  Conditioning is evaluated only where the outcome reads it:
    for that report, when no decreasing step exists (cond > COND_MAX then
    makes the status rank_deficient, else converged), and, for a run that
    exhausts MAX_ITER, at every iteration (one above COND_MAX makes it
    rank_deficient instead of max_iter).
    """
    pars = problem.params
    free = problem.free_indices()
    nfree = len(free)
    if nfree == 0:
        raise ValueError("no free parameters")
    leading = free == list(range(nfree))

    full = np.array([p.value for p in pars], dtype=float)
    # (internal index, declared index, lower bound) of each bounded free parameter
    bounded = [(k, i, pars[i].lo) for k, i in enumerate(free) if math.isfinite(pars[i].lo)]

    def external(theta):
        out = full.copy()
        out[free] = theta
        for k, i, lo in bounded:
            out[i] = lo + _safe_exp(theta[k])
        return out

    def dext_dint(theta):
        out = np.ones(nfree)
        for k, _, _ in bounded:
            out[k] = _safe_exp(theta[k])
        return out

    theta = np.array([_to_internal(pars[i].value, pars[i].lo) for i in free])

    nfev = 0
    njev = 0

    def residual(t):
        nonlocal nfev
        nfev += 1
        return np.asarray(problem.residual(external(t)), dtype=float)

    r0 = residual(theta)
    if r0.size < nfree:
        raise RankDeficientError(
            f"residual dimension {r0.size} < free parameter count {nfree}"
        )
    if not np.isfinite(r0).all():
        raise ValueError("initial residual is not finite")

    def cost_of(r):
        with np.errstate(over="ignore", invalid="ignore"):
            c = float(np.sum(r * r))
        return c if math.isfinite(c) else math.inf

    cost = cost_of(r0)
    r = r0
    mu = 0.0
    status = "max_iter"
    it = 0
    grad_norm = math.nan
    normals = []  # each iteration's J^T J, for the conditioning checks

    def jacobian(theta):
        """The problem's Jacobian chained through the bound transforms into
        internal coordinates.  Its free columns are taken in Fortran order,
        the layout _normal_matrix's gemm and the fit outputs depend on: a
        view when they lead and are already in that order, else a copy."""
        nonlocal njev
        njev += 1
        J = np.asarray(problem.jacobian(external(theta)), dtype=float)
        J = np.asfortranarray(J[:, :nfree]) if leading else J[:, free]
        for k, _, _ in bounded:
            J[:, k] *= _safe_exp(theta[k])
        return J

    for it in range(1, MAX_ITER + 1):
        J = jacobian(theta)
        g = J.T @ r
        grad_norm = float(np.abs(g).max())
        A = _normal_matrix(J)
        normals.append(A)
        if grad_norm < GTOL:
            status = "converged"
            break
        diag = np.diag(A).copy()
        diag[diag <= 0] = 1.0
        diag_max = diag.max()

        accepted = False
        for _ in range(50):
            # undamped: A itself (0 * an inf diagonal stays a nan, as before)
            damped = A if mu == 0 and math.isfinite(diag_max) else A + mu * np.diag(diag)
            try:
                step = np.linalg.solve(damped, -g)
            except np.linalg.LinAlgError:
                mu = max(mu * 10.0, 1e-10 * diag_max)
                continue
            t_new = theta + step
            # a step out of the model's domain is rejected by its non-finite residual
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                r_new = residual(t_new)
            if np.isfinite(r_new).all() and (c_new := cost_of(r_new)) <= cost:
                rel = (cost - c_new) / max(cost, 1e-300)
                theta, r, cost = t_new, r_new, c_new
                mu *= 0.25
                if mu < 1e-14 * diag_max:
                    mu = 0.0  # undamped Gauss-Newton while steps keep working
                accepted = True
                if rel < XTOL:
                    status = "converged"
                break
            mu = max(mu * 10.0, 1e-10 * diag_max)
        if not accepted:
            # no decreasing step exists: a local minimum, unless degenerate
            status = "rank_deficient" if _cond(A) > COND_MAX else "converged"
            break
        if status == "converged":
            break

    if status == "max_iter" and any(_cond(A) > COND_MAX for A in normals):
        status = "rank_deficient"
    cond = _cond(normals[-1])

    # curvature-based errors at the solution, mapped to external coordinates
    J = jacobian(theta)
    A = _normal_matrix(J)
    dof = max(r.size - nfree, 1)
    try:
        cov_int = np.linalg.pinv(A, rcond=1e-14) * (cost / dof)
    except np.linalg.LinAlgError:
        cov_int = np.full((nfree, nfree), np.nan)
    dpdt = dext_dint(theta)
    cov = cov_int * np.outer(dpdt, dpdt)

    p_ext = external(theta)
    params = {p.name: float(p_ext[i]) for i, p in enumerate(pars)}
    errors = {}
    for k, i in enumerate(free):
        v = cov[k, k]
        errors[pars[i].name] = float(math.sqrt(v)) if v >= 0 else float("nan")
    for p in pars:
        if p.fixed:
            errors[p.name] = 0.0
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

def extinction_fit_model(grid, gamma, a, b, psi, center, baseline):
    """Interference transmission model with an effective (already power
    broadened) width gamma."""
    d = grid - center
    lor = 1.0 / (d * d + gamma * gamma / 4.0)
    return baseline * (
        1.0 + a * lor - b * lor * (d * math.cos(psi) + gamma / 2.0 * math.sin(psi))
    )


def _init_line(trace: SpectrumTrace):
    """Heuristic (center, gamma, baseline): extremum of the smoothed trace
    locates the line, half-width at half extremum seeds gamma."""
    g, v = trace.grid, trace.values
    base = float(np.median(v))
    kernel = np.ones(max(3, v.size // 50))
    kernel /= kernel.size
    sm = np.convolve(v - base, kernel, mode="same")
    i0 = int(np.argmax(np.abs(sm)))
    center = float(g[i0])
    depth = float(sm[i0])
    half = np.abs(sm) > abs(depth) / 2.0
    step = float(np.mean(np.diff(g)))
    gamma = max(float(np.sum(half) * step), 2.0 * step)
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
    x = (trace.grid - center) / h
    u = trace.values - 1.0
    wt = 1.0 / (x * x + 1.0)
    rows = np.array([u * x, u, np.ones_like(x), x]) * wt
    try:
        # the scaled basis is well conditioned (cond ~ 10), so its normal
        # equations lose little to a QR solve and take half the time
        coef = np.linalg.solve(rows @ rows.T, rows @ (u * x * x * wt))
    except np.linalg.LinAlgError:
        return center, gamma
    shift = 0.5 * float(coef[0])
    w = -float(coef[1]) - shift * shift   # in units of h^2
    if not (math.isfinite(shift) and w > 0.0):
        return center, gamma
    return center + h * shift, gamma * math.sqrt(w)


def _init_extinction(trace: SpectrumTrace):
    """_init_line plus (A, B, psi): the model is linear in (A, B cos psi,
    B sin psi) at fixed center/gamma, so a cheap linear solve seeds all
    three, including the psi quadrant."""
    center, gamma, baseline = _init_line(trace)
    g, v = trace.grid, trace.values
    d = g - center
    lor = 1.0 / (d * d + gamma * gamma / 4.0)
    basis = np.column_stack([lor, lor * d, lor * gamma / 2.0])
    coef, *_ = np.linalg.lstsq(basis, v / baseline - 1.0, rcond=None)
    a0 = max(float(coef[0]), 1e-9)
    b0 = max(float(math.hypot(coef[1], coef[2])), 1e-9)
    psi0 = math.atan2(-coef[2], -coef[1])
    return center, gamma, a0, b0, psi0, baseline


def fit_extinction(
    data: SpectrumTrace,
    init: Optional[dict] = None,
    fixed: Sequence[str] = (),
) -> FitResult:
    """Fit {A, B, psi, gamma, center, baseline} to a transmission trace."""
    nfree = sum(name not in fixed for name in ("A", "B", "psi", "gamma", "center", "baseline"))
    if data.grid.size < nfree:
        raise ValueError(
            f"trace has {data.grid.size} points, fewer than the {nfree} free parameters"
        )
    span = data.grid[-1] - data.grid[0]
    center0, gamma0, a0, b0, psi0, base0 = _init_extinction(data)
    if span < 3.0 * gamma0:
        raise ValueError("trace must cover at least three linewidths")
    defaults = {
        "A": a0,
        "B": b0,
        "psi": psi0,
        "gamma": gamma0,
        "center": center0,
        "baseline": base0,
    }
    if init:
        defaults.update(init)
    pars = [
        Parameter("A", defaults["A"], lo=0.0, fixed="A" in fixed),
        Parameter("B", defaults["B"], lo=0.0, fixed="B" in fixed),
        Parameter("psi", defaults["psi"], fixed="psi" in fixed),
        Parameter("gamma", defaults["gamma"], lo=1e-12, fixed="gamma" in fixed),
        Parameter("center", defaults["center"], fixed="center" in fixed),
        Parameter("baseline", defaults["baseline"], lo=1e-12, fixed="baseline" in fixed),
    ]

    def residual(p):
        a, b, psi, gamma, center, baseline = p
        return extinction_fit_model(data.grid, gamma, a, b, psi, center, baseline) - data.values

    def jacobian(p):
        # model baseline * (1 + lor * net), net = A - B q, q = d cos psi + gamma/2 sin psi
        a, b, psi, gamma, center, baseline = p
        cos, sin = math.cos(psi), math.sin(psi)
        d = data.grid - center
        lor = 1.0 / (d * d + gamma * gamma / 4.0)
        q = d * cos + gamma / 2.0 * sin
        net = a - b * q
        scaled = baseline * lor
        jac = np.empty((d.size, 6), order="F")  # minimize's layout: no copy
        jac[:, 0] = scaled                                          # A
        jac[:, 1] = -scaled * q                                     # B
        jac[:, 2] = scaled * b * (d * sin - gamma / 2.0 * cos)      # psi
        jac[:, 3] = -scaled * (gamma / 2.0 * lor * net + b / 2.0 * sin)  # gamma
        jac[:, 4] = scaled * (2.0 * d * lor * net + b * cos)        # center
        jac[:, 5] = 1.0 + lor * net                                 # baseline
        return jac

    return minimize(FitProblem(residual, pars, jacobian))


def fit_linewidth_vs_power(spectra: Sequence[tuple]):
    """From (power, SpectrumTrace) pairs, extract per-power FWHM and fit
    FWHM(P) = gamma*sqrt(1 + P/P_sat).

    Returns (table, result) where table is a list of (power, fwhm, fwhm_err)
    and result carries {gamma, p_sat}.
    """
    if len(spectra) < 3:
        raise RankDeficientError("need spectra at >= 3 powers")
    table = []
    for power, tr in spectra:
        try:
            r = fit_extinction(tr)
        except ValueError as exc:
            raise ValueError(f"trace at power {power}: {exc}") from exc
        if not r.converged:
            raise NotConvergedError(f"linewidth fit failed at power {power}", r)
        table.append((float(power), r.params["gamma"], r.errors["gamma"]))
    powers = np.array([t[0] for t in table])
    fwhm = np.array([t[1] for t in table])
    if powers.max() / max(powers.min(), 1e-300) < 3.0:
        raise RankDeficientError("power span too small to separate gamma and P_sat")

    pars = [
        Parameter("gamma", float(fwhm.min()), lo=1e-12),
        Parameter("p_sat", float(np.median(powers)), lo=1e-300),
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
    if positive.size == 0 or positive.max() / positive.min() < 100.0:
        raise RankDeficientError("need >= 2 decades of power around P_sat")

    p_sat0 = float(powers[np.argmax(coherent_rates)])
    pars = [
        Parameter("p_sat", p_sat0, lo=1e-300),
        Parameter("a", float(4.0 * coherent_rates.max()), lo=1e-300),
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
