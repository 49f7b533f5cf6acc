"""Second-order intensity correlation of the driven two-level system.

The closed form follows from the optical Bloch equations at resonance with
population decay 2*pi*gamma0 and coherence decay pi*gamma (angular rates,
physics.bloch_rates): starting from the ground state the excited population
relaxes as a damped oscillation, and g2(tau) is that population normalized
to its steady state.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .physics import (TWO_PI, DriveParams, MoleculeParams, bloch_rates, cyclic_to_angular,
                      saturation_for_rabi)
from .spectra import SpectrumTrace, _G2_COLUMNS, _csv_text, _parse_csv
from . import estimation
from .estimation import FitProblem, FitResult, Parameter, minimize


class G2Trace(SpectrumTrace):
    """Normalized intensity correlation vs delay (ns): a SpectrumTrace of
    kinds (delay_ns, g2) whose values are >= 0 and whose CSV has its own
    layout.  Delays may be negative for symmetric display."""

    def __init__(self, delays, values, meta=None):
        super().__init__(delays, values, "delay_ns", "g2", {} if meta is None else meta)

    @staticmethod
    def _checked_values(grid, values, check_grid: bool) -> np.ndarray:
        values = SpectrumTrace._checked_values(grid, values, check_grid)
        if (values < 0).any():
            raise ValueError("g2 values must be >= 0")
        return values

    def to_csv(self) -> str:
        return _csv_text({"meta": self.meta}, _G2_COLUMNS, self.grid, self.values)

    @classmethod
    def from_csv(cls, text: str) -> "G2Trace":
        """The trace of a to_csv text; a freq_kind or value_kind comment
        other than delay_ns or g2 (another trace's CSV) is a ValueError."""
        fields, _, delays, values = _parse_csv(text)
        for key, kind in (("freq_kind", "delay_ns"), ("value_kind", "g2")):
            if fields.get(key, kind) != kind:
                raise ValueError(f"{key} = {fields[key]} is not a g2 trace's {kind}")
        return cls(delays, values, fields.get("meta"))


# |mu^2 tau^2| below which dS/dmu^2 comes from its Taylor series: entry k
# is the coefficient of (-mu^2 tau^2)^k in (dS/dmu^2)/tau^3.  Five terms
# truncate at ~1e-18 relative at the cut, where the closed form loses
# ~3 eps/|mu^2 tau^2| ~ 7e-14 relative to cancellation.
_SERIES_X = 1e-2
_SERIES_POW = np.arange(5)
_SERIES_DS = np.array([-(k + 1) / math.factorial(2 * k + 3) for k in range(5)])


def _g2_shape(plan, mu_sq, partials=False):
    """The g2 shape 1 - e^{-a tau} (C + a S) at the plan's |delays| tau
    (us) and damping rate a; with partials, the pair (shape, d shape/dmu^2).

    C = cos(mu tau) and S = sin(mu tau)/mu, mu = sqrt(mu^2), are entire in
    mu^2: below the oscillation threshold (mu^2 = -nu^2) they are cosh and
    sinh(nu tau)/nu, and at mu^2 = 0 they are 1 and tau.  dS/dmu^2 =
    (tau C - S)/(2 mu^2) cancels as mu^2 tau^2 -> 0; there it comes from
    its Taylor series.

    e^{-a tau} is the plan's, and a series cut at or below the plan's
    smallest positive tau takes no delay: neither moves a bit against
    computing e^{-a tau} here and testing every delay against the cut.
    Each step runs in place in a buffer of its own (the plan's arrays are
    only read), with the rounding of the expressions in the comments:
    reordering the two operands of one IEEE operation moves no bit.
    """
    tau, a_rate = plan.tau, plan.a_rate
    if mu_sq > 0.0:
        mu = math.sqrt(mu_sq)
        e = plan.decay
        s = np.multiply(mu, tau)
        c = np.cos(s)
        np.sin(s, out=s)
        damped = np.multiply(a_rate / mu, s)   # e (c + (a / mu) s)
        damped += c
        damped *= e
        ec, es = c, s
        ec *= e                                # e c
        es *= e                                # e s / mu
        es /= mu
    else:
        # overdamped, overflow-safe: with f = e^{-(a - nu) tau} and
        # q = e^{-2 nu tau} - 1, e^{-a tau} C = f (1 + q/2) and
        # e^{-a tau} S = -f q / (2 nu)
        nu = math.sqrt(-mu_sq)
        f = np.multiply(nu - a_rate, tau)
        np.exp(f, out=f)
        es = np.multiply(-2.0 * nu, tau)
        np.expm1(es, out=es)                   # q
        ec = np.multiply(0.5, es)              # f (1 + 0.5 q)
        ec += 1.0
        ec *= f
        if nu:
            es *= f                            # f q / (-2 nu)
            es /= -2.0 * nu
        else:
            np.multiply(f, tau, out=es)        # f tau
        damped = np.multiply(a_rate, es, out=f)   # ec + a es
        damped += ec
    shape = np.subtract(1.0, damped, out=damped)
    if not partials:
        return shape
    # the series below |mu^2| tau^2 = _SERIES_X; tau = 0 is exact as it
    # stands, except at mu^2 = 0, where the closed form is 0/0 or x/0 and
    # the series takes every delay
    eds = np.multiply(tau, ec)                 # (tau ec - es) / (2 mu^2)
    eds -= es
    if mu_sq:
        eds /= 2.0 * mu_sq
        cut = math.sqrt(_SERIES_X / abs(mu_sq))
        small = None if cut <= plan.tau_min else (tau < cut) & (tau > 0.0)
    else:
        small = tau < math.inf
    if small is not None and small.any():
        t = tau[small]
        t2 = t * t
        e = plan.decay[small]
        eds[small] = e * t * t2 * (np.power.outer(-mu_sq * t2, _SERIES_POW) @ _SERIES_DS)
    d_mu_sq = np.multiply(0.5, tau, out=ec)    # 0.5 tau es - a eds
    d_mu_sq *= es
    eds *= a_rate
    d_mu_sq -= eds
    return shape, d_mu_sq


class _G2Plan(NamedTuple):
    """What evaluating g2 on a delay grid reads that only the delays (read
    flat) and (gamma0, gamma) fix: g2() and every Rabi fit on that grid
    share it.  Every array is read-only."""

    order: np.ndarray       # the stable sort order of |delays|
    tau: np.ndarray         # |delays| (us), in grid order
    tau_min: float          # the smallest positive tau (inf if none)
    span_ns: float          # the largest |delay| (ns; 0 if none)
    decay: np.ndarray       # e^{-a tau}
    a_rate: float           # damping rate a (angular, per us)
    off_sq: float           # the drive-free part of mu^2
    # the integral seed's window, the sorted tau = t <= 4/a: e^{-a t}, the
    # trapezoid half-steps, x1 = (1 + a t) e^{-a t} and x1 . x1
    seed_e: np.ndarray
    seed_dt: np.ndarray
    seed_x1: np.ndarray
    seed_s11: float

    def mu_sq(self, rabi: float) -> float:
        """Squared oscillation frequency mu^2 = w^2 - off_sq (angular, per
        us) at Rabi frequency rabi (cyclic MHz)."""
        w = cyclic_to_angular(rabi)
        return w * w - self.off_sq


# one plan per (delay bytes, gamma0, gamma); a Monte Carlo study draws and
# fits many traces on one grid, and a few grids at most interleave
@functools.lru_cache(maxsize=8)
def _g2_plan(data: bytes, gamma0: float, gamma: float) -> _G2Plan:
    """The _G2Plan of the float delays with these bytes, for population
    decay gamma0 and linewidth gamma (cyclic MHz)."""
    rates = bloch_rates(gamma0, gamma)
    a_rate, off_sq = rates.a, rates.off_sq
    delays = np.abs(np.frombuffer(data))
    order = np.argsort(delays, kind="stable")
    tau = delays * 1e-3
    positive = tau[tau > 0.0]
    t = delays[order] * 1e-3
    t = t[:int(np.searchsorted(t, 4.0 / a_rate, side="right"))]
    e = np.exp(-a_rate * t)
    x1 = (1.0 + a_rate * t) * e
    plan = _G2Plan(order, tau, float(positive.min()) if positive.size else math.inf,
                   float(delays.max(initial=0.0)), np.exp(-a_rate * tau), a_rate, off_sq,
                   e, 0.5 * np.diff(t), x1, float(x1 @ x1))
    for a in plan:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return plan


def g2(tau_ns, mol: MoleculeParams, drive: DriveParams):
    """g2 at delay tau (ns), clipped at 0; negative delays are mirrored.

    g2(0) = 0, g2(inf) = 1; oscillatory iff the angular Rabi rate exceeds
    |Gamma_1 - Gamma_2|/2 (Gamma_1/4 for a lifetime-limited emitter).
    """
    delays = np.asarray(tau_ns, dtype=float)
    plan = _g2_plan(delays.tobytes(), mol.gamma0, mol.gamma)
    out = np.clip(_g2_shape(plan, plan.mu_sq(drive.rabi)), 0.0, None)
    return out.reshape(delays.shape) if delays.ndim else float(out[0])


def g2_trace(delays_ns, mol: MoleculeParams, drive: DriveParams) -> G2Trace:
    delays = np.asarray(delays_ns, dtype=float)
    return G2Trace(
        delays,
        g2(delays, mol, drive),
        meta={"generator": "g2_trace", "rabi": drive.rabi,
              "gamma0": mol.gamma0, "gamma": mol.gamma},
    )


# a * (delay of the first maximum) below which that maximum seeds rabi
_FIRST_MAX_DECAY = 0.5


def _integral_rabi_seed(plan: _G2Plan, v, plateau, fallback):
    """Rabi frequency (MHz) of the g2 samples v in the plan's order of
    |delay|, from one weighted linear solve (regression on integral
    equations; Jacquelin 2009).

    With P the plateau and a the damping rate, q = e^{a tau} (P - g2) =
    amp (C + a S) obeys q'' = -mu^2 q with q(0) = amp and q'(0) = a amp, so
    q = amp (1 + a tau) - mu^2 Q2, Q2 the trapezoid double integral of q.
    The rows cover tau <= 4/a (the plan's seed window), weighted by
    e^{-a tau} against the growth of the noise in q.  The squared angular
    Rabi rate is mu^2 - mu^2(rabi = 0) = mu^2 + off_sq; a negative one
    (noise about rabi = 0) seeds at its magnitude, the scale the solve
    resolves.  Returns fallback when the solve is singular."""
    e, dt, x1 = plan.seed_e, plan.seed_dt, plan.seed_x1
    y = plateau - v[:e.size]      # e^{-a tau} q
    # samples near the float limit give inf or nan: the checks fall back
    with np.errstate(over="ignore", invalid="ignore"):
        q = y / e
        q1 = np.concatenate(([0.0], np.cumsum(dt * (q[1:] + q[:-1]))))
        q2 = np.concatenate(([0.0], np.cumsum(dt * (q1[1:] + q1[:-1]))))
        x2 = q2 * e
        s11, s12, s22 = plan.seed_s11, float(x1 @ x2), float(x2 @ x2)
        det = s11 * s22 - s12 * s12
        if not det > 0.0:
            return fallback
        w_sq = (s12 * float(x1 @ y) - s11 * float(x2 @ y)) / det + plan.off_sq
    if w_sq == 0.0 or not math.isfinite(w_sq):
        return fallback
    return math.sqrt(abs(w_sq)) / TWO_PI


def fit_rabi_from_g2(trace: G2Trace, mol: MoleculeParams) -> FitResult:
    """Least-squares fit of the closed form plus amplitude and flat
    background; returns rabi (MHz) with its standard error.

    gamma0 is fixed from the molecule (lifetime-derived) and reported as a
    fixed parameter.  Negative delays are mirrored, as in g2.  The result is
    minimize's, whatever its status; a trace shorter than three decay times
    is a ValueError raised before the fit runs.  What only the delays and
    (gamma0, gamma) fix comes from their plan (_g2_plan), shared with g2()
    and every fit on that grid.
    """
    grid = trace.grid
    plan = _g2_plan(grid.tobytes(), mol.gamma0, mol.gamma)
    decay_ns = 1e3 / plan.a_rate
    if plan.span_ns < 3.0 * decay_ns:
        raise ValueError(f"trace too short: spans {plan.span_ns:.3g} ns, "
                         f"need >= {3.0 * decay_ns:.3g} ns (three decay times)")

    # The seeds read the trace in order of |delay|: the plateau is the fifth
    # at the largest |delay| (the tail of a forward trace, the head of a
    # mirrored one).  The first interior maximum, if any, sits near half a
    # Rabi period; that seeds rabi when the oscillation is fast against the
    # decay, and the integral seed does otherwise.
    v = trace.values[plan.order]
    tail = v[-max(3, v.size // 5):]
    plateau = float(np.add.reduce(tail) / tail.size)   # np.mean's bits
    i_max = int(np.argmax(v))
    t_first = math.inf
    if 0 < i_max < v.size - 1 and v[i_max] > 1.05 * plateau:
        t_first = abs(grid[plan.order[i_max]])
    if t_first > 0 and plan.a_rate * t_first * 1e-3 < _FIRST_MAX_DECAY:
        rabi0 = max(0.5e3 / t_first, mol.gamma0)
    else:
        rabi0 = _integral_rabi_seed(plan, v, plateau, mol.gamma0)

    pars = [
        Parameter("rabi", rabi0, lo=0.0),
        Parameter("amplitude", max(plateau, 1e-6), lo=1e-300),
        Parameter("background", 0.0, lo=-1.0),
        Parameter("gamma0", mol.gamma0, fixed=True),
    ]

    # the shape and its derivative in mu^2, shared by the residual and the
    # Jacobian
    terms = estimation._cache_last(lambda p: _g2_shape(plan, plan.mu_sq(p[0]), partials=True))

    def residual(p):
        r = np.multiply(p[1], terms(p)[0])   # bg + amp shape - values
        r += p[2]
        r -= trace.values
        return r

    def jacobian(p):
        rabi, amp = p[0], p[1]
        shape, d_mu_sq = terms(p)
        dmu_drabi = 2.0 * TWO_PI * TWO_PI * rabi
        jac = np.empty((grid.size, 4), order="F")   # minimize's layout: no copy
        np.multiply(d_mu_sq, amp * dmu_drabi, out=jac[:, 0])   # rabi
        jac[:, 1] = shape                           # amplitude
        jac[:, 2] = 1.0                             # background
        jac[:, 3] = 0.0                             # gamma0: the residual does not read it
        return jac

    return minimize(FitProblem(residual, pars, jacobian=jacobian))


def annotate(rabi_mhz: float, mol: MoleculeParams) -> str:
    """Panel-style annotation string for a fitted Rabi frequency."""
    s = saturation_for_rabi(mol, rabi_mhz)
    return f"Omega={rabi_mhz:.4g} MHz, S={s:.4g}"
