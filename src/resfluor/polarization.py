"""Action of the detection chain (quarter waveplate + polarizer) on the
extinction triple (A, B, psi), and the joint component separation of a
QWP-angle series.  The chain's geometry and Jones matrices, and their angle
convention, live in :mod:`physics`.

The triple (A0, B0, psi0) is intrinsic to the molecule-laser pair: it is
normalized to unit laser-dipole overlap and no detection optics.  For a
given chain, the coherent part transforms through the complex overlap of
the chain-transformed laser and dipole fields; the incoherent fluorescence
(fully polarized along the dipole axis, non-interfering) transforms by
intensity projection, which is why the A-term only changes magnitude.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .physics import SeparationGeometry, axis_vector, normalize_phase
from . import estimation
from .estimation import (
    FitProblem,
    FitResult,
    Parameter,
    RankDeficientError,
    minimize,
)


class DegenerateConfigurationError(ValueError):
    """The chain extinguishes the laser field: the detected-intensity
    normalization of the transmission trace is undefined."""


def _jones_overlaps(chain: np.ndarray, e_laser: np.ndarray, e_dipole_axis: float):
    """Unnormalised (|U d|^2, <U e, U d>, |U e|^2) of the chain's Jones
    matrix U, laser Jones vector e and (real, unit) dipole axis vector d.

    Raises DegenerateConfigurationError when the chain extinguishes the laser.
    """
    e_laser = np.asarray(e_laser, dtype=complex)
    if e_laser.shape != (2,) or not np.isfinite(e_laser).all():
        raise ValueError("Jones vector must be a finite length-2 complex vector")
    u_l = chain @ e_laser
    u_d = chain @ axis_vector(e_dipole_axis)
    n = float(np.vdot(u_l, u_l).real)
    if n < 1e-24 * float(np.vdot(e_laser, e_laser).real):
        raise DegenerateConfigurationError(
            "chain extinguishes the laser field; transmitted-intensity "
            "normalization is undefined"
        )
    return float(np.vdot(u_d, u_d).real), complex(np.vdot(u_l, u_d)), n


def transform_extinction_triple(
    chain: np.ndarray,
    e_laser: np.ndarray,
    e_dipole_axis: float,
    a0: float,
    b0: float,
    psi0: float,
):
    """(A', B', psi') seen through the chain with Jones matrix U.

    A' = A0 |U d|^2 / |U e|^2 and B' exp(i psi') = B0 exp(i psi0)
    <U e, U d> / |U e|^2, with e the laser Jones vector
    and d the (real, unit) dipole axis vector.
    """
    if a0 < 0 or b0 < 0:
        raise ValueError("A0 and B0 must be non-negative")
    dd, overlap, n = _jones_overlaps(chain, e_laser, e_dipole_axis)
    a_new = a0 * dd / n
    bc = b0 * np.exp(1j * psi0) * (overlap / n)
    return a_new, float(abs(bc)), normalize_phase(float(np.angle(bc)))


@functools.lru_cache(maxsize=32)
def _series_factors(geometry: SeparationGeometry, thetas: tuple, sizes: tuple):
    """(k_A, k_B, starts) of a QWP-angle series: k_A = |U d|^2 / |U e|^2 and
    k_B = <U e, U d> / |U e|^2 of each angle's chain (_jones_overlaps),
    spread over that trace's pixels, and the index of each trace's first
    pixel in the concatenated series.  Computed once per (geometry, angles,
    trace sizes) and process, as read-only arrays; a degenerate chain raises
    on every call: exceptions are not cached."""
    factors = [_jones_overlaps(geometry.chain(t), geometry.laser_vector(),
                               geometry.dipole_angle) for t in thetas]
    k_a = np.repeat([dd / n for dd, _, n in factors], sizes)
    k_b = np.repeat([overlap / n for _, overlap, n in factors], sizes)
    starts = np.cumsum((0,) + sizes[:-1])
    for a in (k_a, k_b, starts):
        a.flags.writeable = False
    return k_a, k_b, starts


def separate_components(spectra: Sequence[tuple], geometry: SeparationGeometry) -> FitResult:
    """Joint fit of a QWP-angle series of transmission traces.

    spectra: (theta_qwp, SpectrumTrace) pairs sharing one underlying
    molecule/drive state.  Every trace is modeled by the extinction spectrum
    whose per-trace (A', B', psi') derive from the shared intrinsic triple
    as in transform_extinction_triple.  Returns minimize's result, whatever
    its status: the fitted (A0, B0, psi0, gamma, center) with standard
    errors.  Fewer than three distinct angles, an empty trace (named by its
    angle) or a seed trace too short to seed the line is a
    RankDeficientError, raised before the fit runs.
    """
    if len(spectra) < 3:
        raise RankDeficientError("need >= 3 spectra at distinct QWP angles")
    thetas = tuple(float(t) for t, _ in spectra)
    if len({round(t, 12) for t in thetas}) < 3:
        raise RankDeficientError("QWP angles are degenerate; need >= 3 distinct angles")
    traces = [tr for _, tr in spectra]
    sizes = tuple(tr.grid.size for tr in traces)
    for t, size in zip(thetas, sizes):
        if size == 0:
            raise RankDeficientError(f"QWP-angle series: the trace at theta_qwp = {t!r} "
                                     "rad is empty")
    for tr in traces[1:]:
        traces[0].require_same_units(tr)

    # The model is linear in A0 and B0 exp(i psi0): each angle's chain enters
    # only through k_A and k_B, spread over that trace's pixels once per
    # series shape (cached across calls).
    k_a, k_b, starts = _series_factors(geometry, thetas, sizes)
    grid = np.concatenate([tr.grid for tr in traces])
    values = np.concatenate([tr.values for tr in traces])

    terms = estimation._cache_last(lambda p: estimation._line_terms(grid, k_a, k_b, *p))

    def residual(p):
        _, lor, _, _, _, m = terms(p)
        return 1.0 + lor * m - values

    def jacobian(p):
        t = terms(p)
        jac = np.empty((grid.size, 5), order="F")  # minimize's layout: no copy
        return estimation._line_jacobian(jac, t[1], t, k_a, p[1], p[3])

    # Seed gamma/center from the most structured trace (largest span: one
    # reduceat each for the traces' maxima and minima; no trace is empty),
    # the grid heuristic, then one weighted linear solve of that trace's
    # line.  At that (gamma, center) one least-squares solve over all traces
    # seeds the triple.
    spans = np.maximum.reduceat(values, starts) - np.minimum.reduceat(values, starts)
    k = int(np.argmax(spans))
    try:
        center0, gamma0, _ = estimation._init_line(traces[k])
    except ValueError as exc:
        raise RankDeficientError(f"QWP-angle series: {exc}") from exc
    center0, gamma0 = estimation._refine_line(traces[k], center0, gamma0)
    seed = terms(np.array([0.0, 1.0, 0.0, gamma0, center0]))
    basis = estimation._line_jacobian(np.empty((grid.size, 3), order="F"), seed[1], seed,
                                      k_a, 1.0, gamma0)
    a0, b0, psi0 = estimation._seed_triple(basis, values - 1.0, 1e-3)

    pars = [
        Parameter("A0", a0, lo=0.0),
        Parameter("B0", b0, lo=0.0),
        Parameter("psi0", psi0),
        Parameter("gamma", gamma0, lo=1e-12),
        Parameter("center", center0),
    ]

    res = minimize(FitProblem(residual, pars, jacobian=jacobian))
    res.params["psi0"] = normalize_phase(res.params["psi0"])
    return res
