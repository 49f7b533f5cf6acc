import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest

from oracles import g2_ode, g2_shape_mp, g2_shape_partials_mp
from resfluor import correlation, estimation
from resfluor.correlation import (
    G2Trace,
    _g2_shape,
    annotate,
    fit_rabi_from_g2,
    g2,
    g2_trace,
)
from resfluor.physics import DriveParams, MoleculeParams, saturation_parameter
from resfluor.spectra import SpectrumTrace
from resfluor.synth import noisy_g2_trace

MOL = MoleculeParams(gamma0=16.4, gamma=17.0, lambda21=590.0)
LIFETIME_LIMITED = MoleculeParams(gamma0=16.4, gamma=16.4, lambda21=590.0)
# gamma = 2 gamma0: the drive-free part of mu^2 is exactly 0
MU_SQ_ZERO = MoleculeParams(gamma0=16.4, gamma=2.0 * 16.4, lambda21=590.0)


def _plan(delays, mol=MOL):
    """The g2 plan of the float delays (ns) for the molecule."""
    return correlation._g2_plan(np.asarray(delays, dtype=float).tobytes(), mol.gamma0, mol.gamma)


class TestClosedForm:
    def test_antibunching_and_plateau(self):
        drive = DriveParams(rabi=40.0)
        assert g2(0.0, MOL, drive) == 0.0
        assert g2(5000.0, MOL, drive) == pytest.approx(1.0, abs=1e-9)

    def test_even_in_delay(self):
        drive = DriveParams(rabi=40.0)
        tau = np.linspace(0.0, 100.0, 201)
        assert np.array_equal(g2(tau, MOL, drive), g2(-tau, MOL, drive))

    def test_matches_ode_oracle(self):
        tau = np.linspace(0.5, 300.0, 120)
        for mol in (MOL, LIFETIME_LIMITED):
            for rabi in (3.0, 25.0, 120.0):  # rabi=0 has no steady emission to normalize by
                a = g2(tau, mol, DriveParams(rabi=rabi))
                b = g2_ode(tau, mol.gamma0, mol.gamma, rabi)
                assert np.max(np.abs(a - b)) < 1e-9

    def test_branch_continuity_at_threshold(self):
        # oscillatory <-> overdamped crossover must be smooth in Omega
        w_star = abs(math.pi * MOL.gamma - 2 * math.pi * MOL.gamma0) / 2.0
        rabi_star = w_star / (2 * math.pi)
        tau = np.linspace(0.0, 80.0, 161)
        lo = g2(tau, MOL, DriveParams(rabi=rabi_star * (1 - 1e-6)))
        hi = g2(tau, MOL, DriveParams(rabi=rabi_star * (1 + 1e-6)))
        assert np.max(np.abs(lo - hi)) < 1e-6

    def test_high_precision_oracle_matches_ode_oracle(self):
        gamma0, gamma, rabi = MOL.gamma0, MOL.gamma, 25.0
        a = math.pi * (2.0 * gamma0 + gamma) / 2.0
        mu_sq = (2.0 * math.pi * rabi) ** 2 - (math.pi * (gamma - 2.0 * gamma0) / 2.0) ** 2
        tau = np.linspace(0.5, 300.0, 40)
        ref = g2_ode(tau, gamma0, gamma, rabi)
        assert np.max(np.abs(g2_shape_mp(tau * 1e-3, a, mu_sq) - ref)) < 1e-10

    @pytest.mark.parametrize("ratio", [s * r for r in (1e-20, 1e-16, 1e-12, 1e-9, 1e-6, 1e-3)
                                       for s in (1.0, -1.0)])
    def test_near_threshold_matches_high_precision_oracle(self, ratio):
        # mu^2 = ratio * a^2 on both sides of the oscillation threshold,
        # where the overdamped sum 0.5 (1 +- a/nu) e^{-(a -+ nu) tau}
        # cancels as nu -> 0
        plan = _plan(np.linspace(0.0, 400.0, 81))
        tau, a = plan.tau, plan.a_rate
        got = _g2_shape(plan, ratio * a * a)
        assert np.max(np.abs(got - g2_shape_mp(tau, a, ratio * a * a))) <= 1e-13

    @pytest.mark.parametrize("ratio", [0.0, 1e-20, -1e-20, 1e-6, -1e-6, 1e-3, -1e-3,
                                       -0.5, 1.0, 50.0])
    def test_partials_match_high_precision_oracle(self, ratio):
        # d/dmu^2 comes from a Taylor series where mu^2 tau^2 is small,
        # including every delay at mu^2 = 0
        plan = _plan(np.linspace(0.0, 400.0, 41))
        tau, a = plan.tau, plan.a_rate
        shape, d_mu_sq = _g2_shape(plan, ratio * a * a, partials=True)
        assert np.array_equal(shape, _g2_shape(plan, ratio * a * a))
        ref_mu_sq = g2_shape_partials_mp(tau, a, ratio * a * a)
        assert np.max(np.abs(d_mu_sq - ref_mu_sq)) <= 1e-12 * np.max(np.abs(ref_mu_sq))

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward-order", "reverse-order"])
    @pytest.mark.parametrize("delays", [np.linspace(0.0, 400.0, 801),
                                        np.linspace(-400.0, 400.0, 1601)],
                             ids=["forward", "mirrored"])
    def test_plan_terms_match_the_plain_expressions_bit_for_bit(self, delays, reverse):
        # one fit's terms, called on one plan as LM calls them, against the
        # plain expressions at each rabi.  mu^2 > 0 with the Taylor series
        # at every positive delay (mu^2 = 1e-6 a^2: the cut is ~1.3 us), at
        # the first one only (the cut at 1.5 steps) and at none (criterion
        # 6: the cut, 0.32 ns, is below the 0.5-ns step); mu^2 < 0; mu^2 = 0
        # (gamma = 2 gamma0, no drive).  Reversed, the overdamped points
        # come first.
        tau = np.abs(delays) * 1e-3
        step = 0.5e-3
        every = np.count_nonzero(tau > 0.0)
        first = np.count_nonzero(tau == step)
        for mol, regimes in (
                (MOL, {"every": "1e-6", "first": "1.5 steps", "none": 50.0, "overdamped": 2.0}),
                (MU_SQ_ZERO, {"zero": 0.0, "every": "1e-6", "none": 50.0})):
            plan = _plan(delays, mol)
            a, off_sq = plan.a_rate, plan.off_sq
            target = {"1e-6": 1e-6 * a * a, "1.5 steps": correlation._SERIES_X / (1.5 * step) ** 2}
            rabis = {name: math.sqrt(off_sq + target[r]) / (2.0 * math.pi) if r in target else r
                     for name, r in regimes.items()}
            for name in (reversed(rabis) if reverse else rabis):
                w = 2.0 * math.pi * rabis[name]
                mu_sq = w * w - off_sq
                assert plan.mu_sq(rabis[name]) == mu_sq, name
                cut = math.sqrt(correlation._SERIES_X / abs(mu_sq)) if mu_sq else math.inf
                in_series = np.count_nonzero((tau > 0.0) & (tau < cut))
                assert {"every": mu_sq > 0 and in_series == every,
                        "first": mu_sq > 0 and in_series == first,
                        "none": mu_sq > 0 and in_series == 0,
                        "overdamped": mu_sq < 0, "zero": mu_sq == 0}[name], name
                got = _g2_shape(plan, plan.mu_sq(rabis[name]), partials=True)
                want = _g2_shape_expressions(tau, a, mu_sq, partials=True)
                assert [x.tobytes() for x in got] == [x.tobytes() for x in want], name


def _g2_shape_expressions(tau, a_rate, mu_sq, partials=False):
    """_g2_shape written as plain expressions, one temporary per operation,
    computing e^{-a tau} itself and testing every delay against the series
    cut: the form whose bits the in-place kernel on a plan must keep."""
    if mu_sq > 0.0:
        mu = math.sqrt(mu_sq)
        e = np.exp(-a_rate * tau)
        mu_tau = mu * tau
        c, s = np.cos(mu_tau), np.sin(mu_tau)
        damped = e * (c + (a_rate / mu) * s)
        ec, es = e * c, e * s / mu
    else:
        nu = math.sqrt(-mu_sq)
        f = np.exp((nu - a_rate) * tau)
        q = np.expm1(-2.0 * nu * tau)
        ec = f * (1.0 + 0.5 * q)
        es = f * q / (-2.0 * nu) if nu else f * tau
        damped = ec + a_rate * es
    if not partials:
        return 1.0 - damped
    if mu_sq:
        eds = (tau * ec - es) / (2.0 * mu_sq)
        cut = math.sqrt(correlation._SERIES_X / abs(mu_sq))
        small = (tau < cut) & (tau > 0.0)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            eds = (tau * ec - es) / (2.0 * mu_sq)
        small = tau < math.inf
    if small.any():
        t = tau[small]
        t2 = t * t
        e = np.exp(-a_rate * t)
        eds[small] = e * t * t2 * (np.power.outer(-mu_sq * t2, correlation._SERIES_POW)
                                   @ correlation._SERIES_DS)
    return 1.0 - damped, 0.5 * tau * es - a_rate * eds


class TestInPlaceKernel:
    """_g2_shape computes each step in place from the plan's cached e^{-a tau}
    and smallest positive delay; it must keep the bits of the plain
    expressions and never write into the plan it reads."""

    @pytest.mark.parametrize("mu_sq_of_a", [
        ("oscillatory", 50.0), ("oscillatory", 1.0), ("series cut", 1e-3), ("series cut", 1e-6),
        ("overdamped", -0.5), ("overdamped series", -1e-6), ("mu^2 = 0", 0.0)],
        ids=lambda x: f"{x[0]}, {x[1]:g} a^2")
    @pytest.mark.parametrize("delays", [np.linspace(0.0, 400.0, 801),
                                        np.linspace(-400.0, 400.0, 1601)[::-1]],
                             ids=["forward", "mirrored-reversed"])
    def test_bits_equal_the_plain_expressions(self, mu_sq_of_a, delays):
        plan = _plan(delays)
        a = plan.a_rate
        mu_sq = mu_sq_of_a[1] * a * a
        tau = np.abs(delays) * 1e-3
        assert plan.tau.tobytes() == tau.tobytes()
        for partials in (False, True):
            got = _g2_shape(plan, mu_sq, partials)
            want = _g2_shape_expressions(tau, a, mu_sq, partials)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), partials

    def test_scalar_delay_takes_the_array_kernel(self):
        drive = DriveParams(rabi=40.0)
        for tau_ns in (0.0, 7.25, -31.0):
            value = g2(tau_ns, MOL, drive)
            assert type(value) is float
            assert value == g2(np.array([tau_ns]), MOL, drive)[0]

    def test_plan_bytes_unchanged_after_fits(self):
        delays = np.linspace(-400.0, 400.0, 801)
        traces = [noisy_g2_trace(delays, MOL, DriveParams(rabi=(0.0, 5.0, 50.0, 200.0, 300.0)[
            seed % 5]), 1e4, seed=seed) for seed in range(50)]
        correlation._g2_plan.cache_clear()
        plan = _plan(delays)
        before = [x.tobytes() if isinstance(x, np.ndarray) else x for x in plan]
        for tr in traces:
            fit_rabi_from_g2(tr, MOL)
        assert correlation._g2_plan.cache_info().hits == 50
        assert [x.tobytes() if isinstance(x, np.ndarray) else x for x in plan] == before


class TestTraceIO:
    def test_csv_round_trip_bit_exact(self):
        tr = g2_trace(np.linspace(0, 300, 301), MOL, DriveParams(rabi=50.0))
        back = G2Trace.from_csv(tr.to_csv())
        assert np.array_equal(back.grid, tr.grid)
        assert np.array_equal(back.values, tr.values)
        assert back.meta == tr.meta

    def test_validation(self):
        with pytest.raises(ValueError):
            G2Trace(np.array([0.0, 1.0]), np.array([0.0, -0.5]))
        with pytest.raises(ValueError):
            G2Trace(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("delays,values,message", [
        ([0.0, math.inf], [0.0, 1.0], "grid and values must be finite"),
        ([0.0, 1.0], [0.0, math.nan], "grid and values must be finite"),
        ([0.0, 1.0], [0.0, -0.5], "g2 values must be >= 0"),
        ([0.0, 1.0, 2.0], [0.0, 1.0], "length mismatch"),
    ])
    def test_checks_are_spectrum_trace_checks_plus_non_negative_values(self, delays, values,
                                                                       message):
        with pytest.raises(ValueError, match=message):
            G2Trace(np.array(delays), np.array(values))

    @pytest.mark.parametrize("freq_kind,value_kind,message", [
        ("detuning_MHz", "transmission", "freq_kind = detuning_MHz is not a g2 trace's delay_ns"),
        ("delay_ns", "counts_per_s", "value_kind = counts_per_s is not a g2 trace's g2"),
    ])
    def test_csv_of_other_kinds_is_not_read_as_g2(self, freq_kind, value_kind, message):
        text = SpectrumTrace([0.0, 1.0], [1.0, 1.0], freq_kind, value_kind).to_csv()
        with pytest.raises(ValueError, match=message):
            G2Trace.from_csv(text)
        # kind comments that name the g2 kinds are read
        assert G2Trace.from_csv(SpectrumTrace([0.0, 1.0], [1.0, 1.0], "delay_ns", "g2")
                                .to_csv()).values.tolist() == [1.0, 1.0]

    def test_is_a_spectrum_trace_of_delay_and_g2_kinds(self):
        tr = g2_trace(np.linspace(0, 300, 301), MOL, DriveParams(rabi=50.0))
        assert isinstance(tr, SpectrumTrace)
        assert (tr.freq_kind, tr.value_kind) == ("delay_ns", "g2")
        assert G2Trace([0.0], [0.0]).meta == {}
        back = json.loads(tr.to_json())
        assert (back["grid"], back["values"]) == (tr.grid.tolist(), tr.values.tolist())
        assert (back["freq_kind"], back["value_kind"], back["meta"]) == \
            ("delay_ns", "g2", tr.meta)
        # the g2 CSV keeps its own columns and comments
        assert tr.to_csv().splitlines()[:2] == ["# meta = " + json.dumps(tr.meta),
                                                "delay_ns,g2"]


class TestRabiFit:
    def test_noiseless_round_trip(self):
        delays = np.linspace(0.0, 400.0, 801)
        for rabi in (30.0, 50.0, 90.0):
            tr = g2_trace(delays, MOL, DriveParams(rabi=rabi))
            res = fit_rabi_from_g2(tr, MOL)
            assert res.converged
            assert res.params["rabi"] == pytest.approx(rabi, rel=1e-6)
            assert res.params["amplitude"] == pytest.approx(1.0, rel=1e-6)

    def test_weak_drive_consistent_with_zero(self):
        # the noiseless undriven trace: u = rabi^2 is a regular coordinate at
        # 0, so the fit is well conditioned there.  Its residuals are
        # rounding, so no test in units of the error is made
        delays = np.linspace(0.0, 400.0, 801)
        tr = g2_trace(delays, MOL, DriveParams(rabi=0.0))
        res = fit_rabi_from_g2(tr, MOL)
        assert res.converged and res.cond < estimation.COND_MAX
        assert abs(res.params["rabi_sq"]) <= 1e-6
        # it stops at u <= 0: rabi 0, whose error is null
        assert res.params["rabi"] == 0.0 and res.errors["rabi"] is None
        assert json.loads(res.to_json())["errors"]["rabi"] is None
        assert res.table().splitlines()[4].split() == ["rabi", "0", "null"]

    @pytest.mark.parametrize("rabi", [0.0, 1.0, 2.0, 50.0])
    def test_weak_drive_pull(self, rabi):
        # criterion-6 settings, 200 noisy traces: every fit is regular and
        # the scatter of u matches its reported error
        delays = np.linspace(0.0, 400.0, 801)
        fits = [fit_rabi_from_g2(noisy_g2_trace(delays, MOL, DriveParams(rabi=rabi), 1e4,
                                                seed), MOL) for seed in range(200)]
        assert all(r.converged for r in fits)
        assert all(r.cond < estimation.COND_MAX for r in fits)
        errors = np.array([r.errors["rabi_sq"] for r in fits])
        assert np.isfinite(errors).all() and (errors > 0.0).all()
        u = np.array([r.params["rabi_sq"] for r in fits])
        pull = np.std(u, ddof=1) / np.median(errors)
        assert 0.85 <= pull <= 1.15, pull

    def test_noisy_recovery(self):
        delays = np.linspace(0.0, 400.0, 801)
        tr = noisy_g2_trace(delays, MOL, DriveParams(rabi=60.0), 1e4, seed=11)
        res = fit_rabi_from_g2(tr, MOL)
        assert res.params["rabi"] == pytest.approx(60.0, rel=0.05)

    def test_mirrored_trace_recovers_rabi(self):
        # delays on -400..0 ns: the fit mirrors them, as g2 does, and so
        # does its check of the trace's span
        delays = np.linspace(-400.0, 0.0, 801)
        tr = noisy_g2_trace(delays, MOL, DriveParams(rabi=50.0), 1e4, seed=11)
        res = fit_rabi_from_g2(tr, MOL)
        assert res.converged
        assert res.params["rabi"] == pytest.approx(50.0, rel=0.05)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_mirrored_trace_seeds_like_forward_trace(self, seed):
        # the same samples on -400..0 ns and on 0..400 ns: the plateau and
        # first-maximum seeds come from the largest |delay| either way
        delays = np.linspace(0.0, 400.0, 801)
        fwd = noisy_g2_trace(delays, MOL, DriveParams(rabi=50.0), 1e4, seed=seed)
        mirrored = G2Trace(-delays[::-1], fwd.values[::-1])
        assert self._seeds(mirrored) == self._seeds(fwd)
        assert self._seed(mirrored) == self._seed(fwd) == pytest.approx(2500.0, rel=0.1)
        assert fit_rabi_from_g2(mirrored, MOL).nfev == fit_rabi_from_g2(fwd, MOL).nfev

    @staticmethod
    def _seeds(tr):
        """The initial parameter values fit_rabi_from_g2 hands minimize."""
        with mock.patch.object(correlation, "minimize", side_effect=RuntimeError) as m:
            with pytest.raises(RuntimeError):
                fit_rabi_from_g2(tr, MOL)
        return {p.name: p.value for p in m.call_args.args[0].params}

    @staticmethod
    def _seed(tr):
        """The rabi_sq seed (MHz^2) of fit_rabi_from_g2."""
        return correlation._rabi_sq_seed(_plan(tr.grid), tr)[0]

    @pytest.mark.parametrize("rabi", [2.0, 5.0, 20.0, 50.0])
    def test_integral_seed_of_a_slow_oscillation(self, rabi):
        # a * (first maximum) >= 0.5: one linear solve seeds rabi_sq, off
        # only by the trapezoid rule's error on the noiseless trace
        tr = g2_trace(np.linspace(0.0, 400.0, 801), MOL, DriveParams(rabi=rabi))
        assert self._seed(tr) == pytest.approx(rabi * rabi, rel=4e-3)

    @pytest.mark.parametrize("rabi", [100.0, 200.0])
    def test_first_maximum_seeds_a_fast_oscillation(self, rabi):
        # a * (first maximum) < 0.5: the first maximum sits half a Rabi
        # period from zero delay, here on a sample
        tr = g2_trace(np.linspace(0.0, 400.0, 801), MOL, DriveParams(rabi=rabi))
        first_max = tr.grid[np.argmax(tr.values)]
        assert _plan(tr.grid).a_rate * first_max * 1e-3 < 0.5
        assert self._seed(tr) == (0.5e3 / first_max) ** 2 == rabi * rabi

    @pytest.mark.parametrize("seed", [71, 74, 154, 213, 286])
    def test_rounding_floor_costs_at_most_two_extra_evaluations(self, seed):
        # criterion-6 traces whose last trial step raises the cost by a
        # rounding error: the fit stops at that rise
        tr = noisy_g2_trace(np.linspace(0.0, 400.0, 801), MOL, DriveParams(rabi=50.0),
                            1e4, seed)
        res = fit_rabi_from_g2(tr, MOL)
        assert res.converged
        assert res.nfev - res.iterations <= 2

    def test_no_criterion_6_trace_takes_more_than_five_extra_evaluations(self):
        delays = np.linspace(0.0, 400.0, 801)
        extra = []
        for seed in range(400):
            res = fit_rabi_from_g2(
                noisy_g2_trace(delays, MOL, DriveParams(rabi=50.0), 1e4, seed), MOL)
            extra.append(res.nfev - res.iterations)
        assert max(extra) <= 5

    def test_integral_seed_past_the_float_range_falls_back(self):
        # a sample near the float limit overflows the solve's sums: it used
        # to warn twice, and now seeds rabi_sq = 0 silently
        tr = g2_trace(np.linspace(0.0, 400.0, 801), MOL, DriveParams(rabi=5.0))
        v = tr.values.copy()
        v[5] = 1e300
        plan = _plan(tr.grid)
        assert plan.seed_e.size > 5   # v[5] is in the seed's window
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seed = correlation._integral_rabi_seed(plan, v, 1.0)
        assert seed == 0.0

    def test_seed_sweep_no_worse_than_the_first_maximum(self):
        # mean iterations over 20 noisy traces per Rabi frequency, against
        # the seed that always reads the first maximum (gamma0^2 without one)
        delays = np.linspace(0.0, 400.0, 801)
        for rabi in (0.0, 5.0, 20.0, 50.0, 100.0, 200.0, 300.0):
            traces = [noisy_g2_trace(delays, MOL, DriveParams(rabi=rabi), 1e4, seed)
                      for seed in range(20)]
            seeded = np.mean([fit_rabi_from_g2(tr, MOL).iterations for tr in traces])
            with mock.patch.object(correlation, "_FIRST_MAX_DECAY", math.inf), \
                    mock.patch.object(correlation, "_integral_rabi_seed",
                                      lambda *args: MOL.gamma0 ** 2):
                first_max = np.mean([fit_rabi_from_g2(tr, MOL).iterations for tr in traces])
            assert seeded <= first_max, rabi
            if rabi <= 50.0:
                assert seeded < first_max - 0.3, rabi

    @pytest.mark.parametrize("mol", [
        MOL,
        MoleculeParams(gamma0=16.4, gamma=16.4, lambda21=590.0),
        MoleculeParams(gamma0=16.4, gamma=80.0, lambda21=590.0),
    ], ids=["MOL", "lifetime-limited", "dephasing-dominated"])
    @pytest.mark.parametrize("rabi", ["0", "below", "threshold", "above", "5", "50", "120"])
    def test_jacobian_matches_central_differences(self, mol, rabi):
        # gamma on both sides of 2 gamma0: the oscillation threshold
        # |gamma - 2 gamma0| / 4 is reached from either sign of the dephasing term
        threshold = abs(mol.gamma - 2.0 * mol.gamma0) / 4.0
        rabi = {"below": threshold * (1 - 1e-6), "threshold": threshold,
                "above": threshold * (1 + 1e-6)}.get(rabi) or float(rabi)
        tr = g2_trace(np.linspace(0.0, 400.0, 801), mol, DriveParams(rabi=50.0))

        class Captured(Exception):
            pass

        def capture(problem):
            raise Captured(problem)

        with mock.patch.object(correlation, "minimize", capture):
            with pytest.raises(Captured) as info:
                fit_rabi_from_g2(tr, mol)
        problem = info.value.args[0]
        # the fit's internal rabi_sq is u in units of max(|u0|, gamma0^2)
        unit = max(abs(self._seed(tr)), mol.gamma0 ** 2)
        p = np.array([rabi * rabi / unit, 0.9, 0.05])
        jac = problem.jacobian(p)
        assert jac.shape == (801, 3)
        # steps of 1e-5 internal units (0.025 MHz^2 here) keep the
        # differences' truncation error below 1e-7 relative
        for j, h in enumerate(1e-5 * np.ones(3)):   # rabi_sq, amplitude, background
            dp = np.zeros(3)
            dp[j] = h
            fd = (problem.residual(p + dp) - problem.residual(p - dp)) / (2.0 * h)
            assert np.max(np.abs(jac[:, j] - fd)) <= 1e-6 * np.max(np.abs(jac[:, j]))

    def test_closed_form_jacobian_counts(self):
        # one residual per Gauss-Newton step; the Jacobian reuses the
        # shape evaluated with the residual at the accepted point
        delays = np.linspace(0.0, 400.0, 801)
        for tr in (g2_trace(delays, MOL, DriveParams(rabi=50.0)),
                   noisy_g2_trace(delays, MOL, DriveParams(rabi=50.0), 1e4, seed=0)):
            res = fit_rabi_from_g2(tr, MOL)
            assert res.converged
            assert res.njev == res.iterations + 1
            assert res.nfev <= res.iterations + 2

    def test_gamma0_is_reported_but_not_fitted(self):
        # rabi (derived from rabi_sq) and the molecule's gamma0 follow the
        # three fitted parameters, outside param_order and the covariance;
        # gamma0 with error 0.0
        tr = noisy_g2_trace(np.linspace(0.0, 400.0, 801), MOL, DriveParams(rabi=50.0), 1e4,
                            seed=0)
        res = fit_rabi_from_g2(tr, MOL)
        assert list(res.params) == list(res.errors) == ["rabi_sq", "amplitude", "background",
                                                        "rabi", "gamma0"]
        assert res.params["gamma0"] == MOL.gamma0 and res.errors["gamma0"] == 0.0
        assert res.param_order == ["rabi_sq", "amplitude", "background"]
        assert res.covariance.shape == (3, 3)
        u, rabi = res.params["rabi_sq"], res.params["rabi"]
        assert rabi == math.sqrt(u)
        assert res.errors["rabi"] == res.errors["rabi_sq"] / (2.0 * rabi)
        assert res.covariance[0, 0] == pytest.approx(res.errors["rabi_sq"] ** 2, rel=1e-12)

    def test_short_trace_rejected(self):
        # the same error on every call, from a cached plan as from a new one
        delays = np.linspace(0.0, 20.0, 41)
        tr = g2_trace(delays, MOL, DriveParams(rabi=60.0))
        messages = set()
        for _ in range(3):
            with pytest.raises(ValueError, match="trace too short") as info:
                fit_rabi_from_g2(tr, MOL)
            messages.add(str(info.value))
        assert len(messages) == 1

    def test_a_short_grid_evaluates_and_only_the_fit_rejects_it(self):
        # three decay times is the fit's requirement, not the grid's: g2 on
        # 0..20 ns (about one decay time) is the closed form there
        delays = np.linspace(0.5, 20.0, 40)
        correlation._g2_plan.cache_clear()
        got = g2(delays, MOL, DriveParams(rabi=60.0))
        assert np.max(np.abs(got - g2_ode(delays, MOL.gamma0, MOL.gamma, 60.0))) < 1e-9
        with pytest.raises(ValueError, match="trace too short"):
            fit_rabi_from_g2(G2Trace(delays, got), MOL)
        assert correlation._g2_plan.cache_info().misses == 1


class TestFitPlan:
    """g2 and fit_rabi_from_g2 read what only the delays and (gamma0, gamma)
    fix from one cached plan per grid and molecule (correlation._g2_plan)."""

    @staticmethod
    def _fit_json(tr, mol=MOL):
        return fit_rabi_from_g2(tr, mol).to_json()

    @pytest.mark.parametrize("mirrored", [False, True], ids=["forward", "mirrored"])
    def test_cold_and_warm_plans_give_the_same_bytes(self, mirrored):
        # Omega = 0 and 5 MHz take the integral seed,
        # 50 MHz is criterion 6, 200 MHz takes the first-maximum seed
        delays = np.linspace(0.0, 400.0, 801)
        for rabi in (0.0, 5.0, 50.0, 200.0):
            tr = noisy_g2_trace(delays, MOL, DriveParams(rabi=rabi), 1e4, seed=3)
            if mirrored:
                tr = G2Trace(-delays[::-1], tr.values[::-1])
            correlation._g2_plan.cache_clear()
            cold = self._fit_json(tr)
            assert correlation._g2_plan.cache_info().misses == 1
            warm = self._fit_json(tr)
            assert correlation._g2_plan.cache_info().hits == 1
            assert warm == cold, rabi
        with mock.patch.object(correlation, "_integral_rabi_seed",
                               side_effect=AssertionError("integral seed")):
            self._fit_json(tr)   # 200 MHz: the first maximum seeds rabi_sq

    def test_molecules_sharing_a_grid_get_separate_plans(self):
        delays = np.linspace(0.0, 400.0, 801)
        other = MoleculeParams(gamma0=16.4, gamma=40.0, lambda21=590.0)
        correlation._g2_plan.cache_clear()
        plans = [_plan(delays, mol) for mol in (MOL, other, MOL)]
        assert plans[0] is plans[2] and plans[0] is not plans[1]
        assert plans[0].a_rate != plans[1].a_rate
        tr = noisy_g2_trace(delays, other, DriveParams(rabi=50.0), 1e4, seed=4)
        warm = self._fit_json(tr, other)
        correlation._g2_plan.cache_clear()
        assert self._fit_json(tr, other) == warm

    def test_g2_and_the_fit_share_one_plan(self):
        # one miss for the trace's g2, then hits for the fit and for g2 at
        # another drive on the same grid and molecule
        delays = np.linspace(0.0, 400.0, 801)
        correlation._g2_plan.cache_clear()
        tr = g2_trace(delays, MOL, DriveParams(rabi=50.0))
        assert correlation._g2_plan.cache_info().misses == 1
        fit_rabi_from_g2(tr, MOL)
        g2(delays, MOL, DriveParams(rabi=5.0))
        info = correlation._g2_plan.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_plan_arrays_are_read_only(self):
        delays = np.linspace(-400.0, 400.0, 1601)
        plan = _plan(delays)
        arrays = [x for x in plan if isinstance(x, np.ndarray)]
        assert len(arrays) == 6
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0


def test_saturation_annotation():
    s = saturation_parameter(MOL, DriveParams(rabi=40.0))
    text = annotate(40.0, MOL)
    assert "Omega=40" in text and f"S={s:.4g}" in text
