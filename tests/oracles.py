"""Independent numerical oracles used by the test suite.

The two ODE oracles integrate the optical Bloch equations written out
explicitly as coupled scalar ODEs (quantum regression for two-time
quantities), with tight integrator tolerances.  The Liouvillian oracles
hold the 4x4 Bloch Liouvillian, written out entry by entry: its stationary
state and the resolvent that gives the Mollow spectrum, by linear solves in
40-digit arithmetic.  The package evaluates the spectrum from Mollow's
closed form instead, so the two paths share nothing but the physical model.
The g2 shape oracle evaluates the closed form in 40-digit arithmetic, with
one complex square root in place of the package's regimes and series.  The
Fabry-Perot oracle applies the Airy instrument by the dense N x N trapezoid
sum, with the Airy formula written out here.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

TWO_PI = 2.0 * math.pi


def _rates(gamma0_mhz, gamma_mhz, rabi_mhz):
    """Angular rates in rad/us: population decay, coherence decay, Rabi."""
    return TWO_PI * gamma0_mhz, math.pi * gamma_mhz, TWO_PI * rabi_mhz


def g2_ode(tau_ns, gamma0_mhz, gamma_mhz, rabi_mhz, rtol=1e-12, atol=1e-14):
    """g2 via direct integration of (rho_ee, v) from the ground state,
    normalized by the steady-state excited population."""
    g1, g2r, w = _rates(gamma0_mhz, gamma_mhz, rabi_mhz)

    def rhs(t, y):
        ree, v = y
        return [-g1 * ree + 0.5 * w * v, -g2r * v - w * (2.0 * ree - 1.0)]

    a = np.array([[-g1, 0.5 * w], [-2.0 * w, -g2r]])
    ree_ss, _ = np.linalg.solve(a, [0.0, -w])
    tau_us = np.asarray(tau_ns, dtype=float) * 1e-3
    sol = solve_ivp(rhs, (0.0, float(tau_us.max())), [0.0, 0.0],
                    t_eval=tau_us, rtol=rtol, atol=atol, method="DOP853")
    return sol.y[0] / ree_ss


def _g2_shape_mp(t, a, m):
    mu = mpmath.sqrt(mpmath.mpc(m))
    osc = 1 + a * t if mu == 0 else mpmath.cos(mu * t) + a * mpmath.sin(mu * t) / mu
    return mpmath.re(1 - mpmath.exp(-a * t) * osc)


def g2_shape_mp(tau_us, a_rate, mu_sq, dps=40):
    """1 - e^{-a tau} (cos(mu tau) + a sin(mu tau)/mu), mu = sqrt(mu_sq)
    (imaginary below the oscillation threshold), at dps digits; the float
    inputs are taken exactly.  At mu = 0 it is the limit
    1 - e^{-a tau} (1 + a tau)."""
    with mpmath.workdps(dps):
        a, m = mpmath.mpf(float(a_rate)), mpmath.mpf(float(mu_sq))
        return np.array([float(_g2_shape_mp(mpmath.mpf(float(t)), a, m))
                         for t in np.asarray(tau_us, dtype=float)])


def g2_shape_partials_mp(tau_us, a_rate, mu_sq, dps=40):
    """d/dmu_sq of g2_shape_mp, by mpmath's numerical differentiation at
    dps digits."""
    with mpmath.workdps(dps):
        a, m = mpmath.mpf(float(a_rate)), mpmath.mpf(float(mu_sq))
        return np.array([
            float(mpmath.diff(lambda x: _g2_shape_mp(mpmath.mpf(float(t)), a, x), m))
            for t in np.asarray(tau_us, dtype=float)])


def _bloch_mp(gamma0_mhz, gamma_mhz, rabi_mhz):
    """(L, rho): the resonant Bloch Liouvillian on column-stacked
    rho = (rho_gg, rho_eg, rho_ge, rho_ee), from the float inputs taken
    exactly, and its trace-one stationary state, at the working precision.

    Population decay G1 = 2 pi gamma0, coherence decay G2 = pi gamma and
    H = (w/2) (|g><e| + |e><g|), w = 2 pi rabi (angular, per us)."""
    g1 = 2 * mpmath.pi * mpmath.mpf(float(gamma0_mhz))
    g2 = mpmath.pi * mpmath.mpf(float(gamma_mhz))
    h = mpmath.pi * mpmath.mpf(float(rabi_mhz))          # w/2
    ih = mpmath.mpc(0, 1) * h
    liou = mpmath.matrix([[0, -ih, ih, g1],
                          [-ih, -g2, 0, ih],
                          [ih, 0, -g2, -ih],
                          [0, ih, -ih, -g1]])
    # L rho = 0 with its first row (the trace-preserving one) replaced by
    # Tr rho = 1
    trace_one = liou.copy()
    for j, t in enumerate((1, 0, 0, 1)):
        trace_one[0, j] = t
    return liou, mpmath.lu_solve(trace_one, mpmath.matrix([1, 0, 0, 0]))


def bloch_stationary_mp(gamma0_mhz, gamma_mhz, rabi_mhz, dps=40):
    """(rho_ee, <s->) of the stationary state at dps digits, as a float and
    a complex."""
    with mpmath.workdps(dps):
        _, rho = _bloch_mp(gamma0_mhz, gamma_mhz, rabi_mhz)
        return float(mpmath.re(rho[3])), complex(rho[1])


def mollow_resolvent_mp(freq_mhz, gamma0_mhz, gamma_mhz, rabi_mhz, dps=40):
    """Incoherent emission spectral density per MHz at dps digits, with the
    package's normalization: 4 Re of s+ . (i omega - M)^-1 x0 at omega =
    2 pi freq, with x0 = s- rho - <s-> rho and M = L - rho Tr (the
    stationary mode deflated, which leaves omega != 0 unchanged and makes
    omega = 0 solvable).  The float inputs are taken exactly."""
    with mpmath.workdps(dps):
        liou, rho = _bloch_mp(gamma0_mhz, gamma_mhz, rabi_mhz)
        x0 = mpmath.matrix([rho[1], 0, rho[3], 0]) - rho[1] * rho
        m = liou - rho * mpmath.matrix([[1, 0, 0, 1]])
        out = []
        for f in np.asarray(freq_mhz, dtype=float):
            s = mpmath.mpc(0, 2 * mpmath.pi * mpmath.mpf(float(f)))
            out.append(float(4 * mpmath.re(mpmath.lu_solve(s * mpmath.eye(4) - m, x0)[2])))
        return np.array(out)


def mollow_ode(freq_mhz, gamma0_mhz, gamma_mhz, rabi_mhz,
               n_decay=45.0, rtol=1e-11, atol=1e-14):
    """Incoherent emission spectral density per MHz via quantum regression.

    Integrates the correlation vector (s, p, z) = (<s->, <s+>, <sz>) evolved
    from M = s- rho_ss, together with one Fourier accumulator per requested
    frequency; the density is 2*Re of the one-sided transform of
    C_inc(tau) = p(tau) - |<s->_ss|^2, rescaled by 2 so the integral equals
    the incoherent emitted-intensity factor (the rate convention counts
    2*rho_ee = S/(1+S), while C_total(0) = rho_ee).
    """
    g1, g2r, w = _rates(gamma0_mhz, gamma_mhz, rabi_mhz)
    freq = np.asarray(freq_mhz, dtype=float)
    omega = TWO_PI * freq

    # steady state of the one-time equations
    sat = w * w / (g1 * g2r)
    z_ss = -1.0 / (1.0 + sat)
    s_ss = 0.5j * w * z_ss / g2r
    ree_ss = 0.5 * (1.0 + z_ss)
    reg_ss = s_ss          # rho_eg
    c_inf = abs(s_ss) ** 2

    # initial correlation vector from M = s- rho_ss
    s0 = 0.0 + 0.0j
    p0 = ree_ss + 0.0j
    z0 = -reg_ss
    m0 = reg_ss            # Tr[M], constant under the evolution

    nf = omega.size

    def rhs(t, y):
        s, p, z = y[0], y[1], y[2]
        ds = 0.5j * w * z - g2r * s
        dp = -0.5j * w * z - g2r * p
        dz = -1j * w * (p - s) - g1 * (z + m0)
        c_inc = p - c_inf
        df = np.exp(-1j * omega * t) * c_inc
        return np.concatenate(([ds, dp, dz], df))

    decay = min(g1, g2r)
    t_end = n_decay / decay
    y0 = np.concatenate(([s0, p0, z0], np.zeros(nf, dtype=complex)))
    sol = solve_ivp(rhs, (0.0, t_end), y0, rtol=rtol, atol=atol, method="DOP853")
    fourier = sol.y[3:, -1]
    return 2.0 * 2.0 * np.real(fourier)


def fpc_convolve_dense(grid, values, fsr, fwhm, peak):
    """Airy instrument applied to a sampled density, on its own grid.

    out[i] = sum_j T(grid[i] - grid[j]) * values[j] * w[j], with the
    trapezoid weights w and T(nu) = peak / (1 + F sin^2(pi nu / fsr)),
    F = 1 / sin^2(pi fwhm / (2 fsr)), over the full N x N matrix of
    frequency differences: any grid, O(N^2) memory.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    coeff = 1.0 / math.sin(math.pi * fwhm / (2.0 * fsr)) ** 2
    diff = grid[:, None] - grid[None, :]
    airy = peak / (1.0 + coeff * np.sin(math.pi * diff / fsr) ** 2)
    weights = np.empty_like(grid)
    weights[0] = (grid[1] - grid[0]) / 2.0
    weights[-1] = (grid[-1] - grid[-2]) / 2.0
    weights[1:-1] = (grid[2:] - grid[:-2]) / 2.0
    return airy @ (values * weights)
