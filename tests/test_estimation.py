import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import least_squares

from resfluor import estimation
from resfluor.estimation import (
    FitProblem,
    NotConvergedError,
    Parameter,
    RankDeficientError,
    _safe_exp,
    _to_internal,
    extinction_fit_model,
    fit_extinction,
    fit_linewidth_vs_power,
    fit_saturation_curves,
    minimize,
)
from resfluor.measurement import DetectorParams
from resfluor.physics import DriveParams, MoleculeParams, rabi_for_saturation
from resfluor.spectra import ExtinctionModel, SpectrumTrace, extinction_spectrum
from resfluor.synth import noisy_extinction_trace

MOL = MoleculeParams(gamma0=16.4, gamma=17.0, lambda21=590.0)


def _fits(fit, *args, **kwargs):
    """(FitProblem, FitResult) of each minimize call that fit(*args,
    **kwargs) makes, in call order."""
    fits = []

    def capture(problem):
        res = minimize(problem)
        fits.append((problem, res))
        return res

    with mock.patch.object(estimation, "minimize", capture):
        fit(*args, **kwargs)
    return fits


def _assert_jacobian_matches_central_differences(problem, p):
    """Every column of problem.jacobian(p), fixed ones included, against
    central differences of the residual with steps 1e-4 * (1 + |p|)."""
    jac = problem.jacobian(p)
    assert jac.shape == (problem.residual(p).size, p.size)
    for j, h in enumerate(1e-4 * (1.0 + np.abs(p))):
        dp = np.zeros(p.size)
        dp[j] = h
        fd = (problem.residual(p + dp) - problem.residual(p - dp)) / (2.0 * h)
        assert np.max(np.abs(jac[:, j] - fd)) <= 1e-6 * np.max(np.abs(jac[:, j])), j


class TestTransforms:
    def test_round_trip_all_bound_kinds(self):
        # an unbounded parameter is its own internal value; a bounded one
        # maps back through lo + _safe_exp(t), whose derivative is _safe_exp
        assert _to_internal(3.7, -math.inf) == 3.7
        lo, p = 0.0, 2.5
        t = _to_internal(p, lo)
        assert lo + _safe_exp(t) == pytest.approx(p, rel=1e-9)
        h = 1e-6
        num = (_safe_exp(t + h) - _safe_exp(t - h)) / (2 * h)
        assert _safe_exp(t) == pytest.approx(num, rel=1e-6)

    def test_external_stays_inside_bounds(self):
        for t in (-800.0, -5.0, 0.0, 5.0, 800.0):
            assert 0.0 <= _safe_exp(t) < math.inf


class TestMinimize:
    def test_linear_problem_two_iterations(self, monkeypatch):
        # unbounded linear least squares is solved by the first undamped
        # Gauss-Newton step; the second iteration only certifies the gradient
        x = np.linspace(0, 1, 40)
        y = 2.0 - 3.0 * x

        def residual(p):
            return p[0] + p[1] * x - y

        pars = [Parameter("c0", 10.0), Parameter("c1", -10.0)]
        monkeypatch.setattr(estimation, "GTOL", 1e-13)
        res = minimize(FitProblem(residual, pars, lambda p: np.vander(x, 2, increasing=True)))
        assert res.converged
        assert res.iterations <= 3
        assert res.params["c0"] == pytest.approx(2.0, abs=1e-10)
        assert res.params["c1"] == pytest.approx(-3.0, abs=1e-10)

    def test_rosenbrock_from_many_starts(self, monkeypatch):
        monkeypatch.setattr(estimation, "MAX_ITER", 2000)
        rng = np.random.default_rng(7)
        for _ in range(25):
            a, b = rng.uniform(-2, 2, size=2)
            res = minimize(self._rosenbrock(a, b, []))
            assert res.cost < 1e-12
            assert res.params["x"] == pytest.approx(1.0, abs=1e-6)

    def test_bounded_solution_at_boundary(self):
        def residual(p):
            return np.array([p[0] + 2.0, p[0] - 1.0])  # free optimum -0.5

        res = minimize(FitProblem(residual, [Parameter("x", 1.0, lo=0.0)],
                                  lambda p: np.ones((2, 1))))
        assert res.params["x"] == pytest.approx(0.0, abs=1e-6)

    def test_fixed_parameters_do_not_move(self):
        x = np.linspace(0, 1, 20)

        def residual(p):
            return p[0] + p[1] * x - (5.0 + 0.5 * x)

        pars = [Parameter("c0", 0.0), Parameter("c1", 0.25, fixed=True)]
        res = minimize(FitProblem(residual, pars, lambda p: np.vander(x, 2, increasing=True)))
        assert res.params["c1"] == 0.25
        assert res.errors["c1"] == 0.0
        assert res.params["c0"] == pytest.approx(5.0 + 0.5 * 0.5 - 0.25 * 0.5, rel=1e-6)

    def test_diagnostics_in_result_and_json(self):
        x = np.linspace(0, 1, 20)
        y = 1.0 - 2.0 * x + 0.5 * x * x
        calls = []

        def residual(p):
            calls.append(1)
            return p[0] + p[1] * x + p[2] * x * x - y

        pars = [Parameter("c0", 0.0), Parameter("c1", 0.0),
                Parameter("c2", 0.5, fixed=True)]
        res = minimize(FitProblem(residual, pars, lambda p: np.vander(x, 3, increasing=True)))
        payload = json.loads(res.to_json())
        # nfev counts residual calls, njev Jacobian calls: one per iteration
        # plus one for the errors
        assert payload["nfev"] == res.nfev == len(calls) > 0
        assert payload["njev"] == res.njev == res.iterations + 1
        assert payload["param_order"] == ["c0", "c1"]
        assert np.array_equal(np.array(payload["covariance"]), res.covariance)
        assert np.array(payload["covariance"]).shape == (2, 2)
        assert (payload["status"], payload["iterations"]) == (res.status, res.iterations)
        assert payload["grad_norm"] == res.grad_norm < estimation.GTOL
        assert payload["cond"] == res.cond >= 1.0
        # a parameter the residual ignores makes the normal matrix singular
        singular = minimize(FitProblem(lambda p: p[0] - y,
                                       [Parameter("a", 0.0), Parameter("b", 0.0)],
                                       lambda p: np.column_stack([np.ones_like(y), 0.0 * y])))
        assert singular.cond == math.inf
        assert json.loads(singular.to_json())["cond"] is None

    def test_bounded_fit_matches_scipy_least_squares(self, monkeypatch):
        # one parameter per bound kind, plus a fixed one between them whose
        # column the engine must drop: the chain rule through the bound
        # transforms must reach scipy's solution and covariance
        x = np.linspace(0.0, 2.0, 60)
        y = (1.5 * np.exp(-0.8 * x) - 0.7 * x * x + 0.3 * np.cos(3.0 * x) + 0.2
             + 0.01 * np.sin(17.0 * x))

        def residual(p):
            a, k, z, c, f = p
            return a * np.exp(-k * x) + c * x * x + f * np.cos(3.0 * x) + z - y

        def jacobian(p):
            a, k, z, c, f = p
            e = np.exp(-k * x)
            return np.column_stack([e, -a * x * e, np.ones_like(x), x * x, np.cos(3.0 * x)])

        pars = [Parameter("a", 1.0), Parameter("k", 0.5, lo=0.0),
                Parameter("z", 0.2, fixed=True), Parameter("c", 0.0),
                Parameter("f", 0.5, lo=0.0)]
        monkeypatch.setattr(estimation, "GTOL", 1e-13)
        monkeypatch.setattr(estimation, "XTOL", 1e-15)
        res = minimize(FitProblem(residual, pars, jacobian))
        assert res.converged and res.njev == res.iterations + 1
        assert res.params["z"] == 0.2 and res.errors["z"] == 0.0

        free = [0, 1, 3, 4]

        def at(q):
            p = np.array([0.0, 0.0, 0.2, 0.0, 0.0])
            p[free] = q
            return p

        ref = least_squares(lambda q: residual(at(q)), [1.0, 0.5, 0.0, 0.5],
                            jac=lambda q: jacobian(at(q))[:, free],
                            bounds=([-np.inf, 0.0, -np.inf, 0.0], np.inf),
                            xtol=1e-15, ftol=1e-15, gtol=1e-15)
        assert ref.success and (ref.x[[1, 3]] > 0.0).all()  # an interior optimum
        cov = np.linalg.inv(ref.jac.T @ ref.jac) * (2.0 * ref.cost / (x.size - 4))
        for k, name in enumerate(("a", "k", "c", "f")):
            assert res.params[name] == pytest.approx(ref.x[k], rel=1e-8)
            assert res.errors[name] == pytest.approx(math.sqrt(cov[k, k]), rel=1e-5)

    @pytest.mark.parametrize("fixed", [(), ("a",)])
    def test_jacobian_memory_order_changes_no_bit(self, fixed):
        # minimize takes the free columns of a closed-form Jacobian in
        # Fortran order, without a copy when they lead and already are: the
        # normal matrix's gemm, and so every fit output, sees one layout
        # whichever order the problem returns
        x = np.linspace(-3.0, 3.0, 201)
        y = 0.4 + 1.3 * np.exp(-0.7 * x * x) + 0.2 * x + 0.01 * np.sin(11.0 * x)

        def residual(p):
            a, b, k, c = p
            return a + b * np.exp(-k * x * x) + c * x - y

        def fit(order):
            def jacobian(p):
                a, b, k, c = p
                e = np.exp(-k * x * x)
                return np.array(np.column_stack([np.ones_like(x), e, -b * x * x * e, x]),
                                order=order)

            pars = [Parameter("a", 0.3, fixed="a" in fixed), Parameter("b", 1.0, lo=0.0),
                    Parameter("k", 0.5, lo=0.0), Parameter("c", 0.0)]
            return minimize(FitProblem(residual, pars, jacobian=jacobian))

        c_res, f_res = fit("C"), fit("F")
        assert c_res.converged and c_res.iterations > 1
        for key in ("params", "errors", "cost", "status", "iterations", "cond", "nfev",
                    "njev", "grad_norm", "param_order"):
            assert getattr(c_res, key) == getattr(f_res, key), key
        assert np.array_equal(c_res.covariance, f_res.covariance)

    def test_underdetermined_raises(self):
        with pytest.raises(RankDeficientError):
            minimize(FitProblem(lambda p: np.array([p[0] + p[1]]),
                                [Parameter("a", 0.0), Parameter("b", 0.0)],
                                lambda p: np.ones((1, 2))))

    def test_errors_scale_with_residual_noise(self):
        # the covariance is scaled by cost / dof: a constant fitted to N
        # points of noise sigma has std error sigma / sqrt(N)
        rng = np.random.default_rng(3)
        y = 1.0 + rng.normal(0, 0.1, 200)
        res = minimize(FitProblem(lambda p: p[0] - y, [Parameter("c", 0.0)],
                                  lambda p: np.ones((y.size, 1))))
        assert res.params["c"] == pytest.approx(np.mean(y), rel=1e-9)
        assert res.errors["c"] == pytest.approx(0.1 / math.sqrt(y.size), rel=0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_initial_residual_raises(self, bad):
        with pytest.raises(ValueError, match="initial residual is not finite"):
            minimize(FitProblem(lambda p: np.array([p[0], bad]), [Parameter("a", 0.0)],
                                lambda p: np.array([[1.0], [0.0]])))

    def test_trial_step_overflow_is_rejected_without_warning(self):
        # at x = -8 the first Gauss-Newton step lands near x = 6000, where
        # exp overflows: that trial residual is inf and rejected, silently,
        # and damping walks to ln 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = minimize(FitProblem(lambda p: np.exp(p) - 2.0, [Parameter("x", -8.0)],
                                      lambda p: np.exp(p)[:, None]))
        assert res.converged
        assert res.params["x"] == pytest.approx(math.log(2.0), rel=1e-9)
        assert res.nfev > res.iterations + 1   # at least one rejected step

    def test_no_free_parameters_raises(self):
        with pytest.raises(ValueError, match="no free parameters"):
            minimize(FitProblem(lambda p: p - 1.0, [Parameter("a", 0.0, fixed=True)],
                                lambda p: np.eye(1)))

    def test_parameter_init_below_bound_raises(self):
        with pytest.raises(ValueError, match="outside bounds"):
            Parameter("a", -1.0, lo=0.0)
        assert Parameter("a", 0.0, lo=0.0).value == 0.0

    def test_iteration_budget_exhausted_is_max_iter(self, monkeypatch):
        monkeypatch.setattr(estimation, "MAX_ITER", 2)
        res = minimize(self._rosenbrock(-1.5, 2.0, []))
        assert res.status == "max_iter"
        assert not res.converged
        assert res.iterations == 2

    def test_cond_is_eigenvalue_ratio_of_normal_matrix(self):
        x = np.linspace(0.0, 3.0, 30)
        J = np.column_stack([np.ones_like(x), x, x * x])
        pars = [Parameter(name, 0.0) for name in ("c0", "c1", "c2")]
        res = minimize(FitProblem(lambda p: J @ p - np.exp(-x), pars, jacobian=lambda p: J))
        assert res.converged
        lam = np.linalg.eigvalsh(J.T @ J)
        assert res.cond == pytest.approx(lam[-1] / lam[0], rel=1e-10)

    @staticmethod
    def _rosenbrock(x0, y0, conds):
        """Rosenbrock from (x0, y0) with a closed-form Jacobian that records
        the condition number of J^T J at each call."""
        def residual(p):
            return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])

        def jacobian(p):
            J = np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])
            lam = np.linalg.eigvalsh(J.T @ J)
            conds.append(lam[-1] / lam[0])
            return J

        return FitProblem(residual, [Parameter("x", x0), Parameter("y", y0)], jacobian=jacobian)

    def test_max_iter_after_one_ill_conditioned_iteration_is_rank_deficient(self, monkeypatch):
        # from x = 1000 the first normal matrix has cond ~ 1.6e15 and every
        # later one ~ 2.5e3; the run needs three iterations
        conds = []
        assert minimize(self._rosenbrock(1e3, 0.0, conds)).iterations == 3
        assert conds[0] > estimation.COND_MAX and max(conds[1:]) < 1e4
        monkeypatch.setattr(estimation, "MAX_ITER", 2)
        conds.clear()
        res = minimize(self._rosenbrock(1e3, 0.0, conds))
        assert conds[0] > estimation.COND_MAX and conds[1] < 1e4
        assert (res.status, res.iterations) == ("rank_deficient", 2)
        assert res.cond == pytest.approx(conds[1], rel=1e-6)

    @pytest.mark.parametrize("tilt, status", [(1.0, "converged"), (1e-7, "rank_deficient")])
    def test_exit_after_rejected_step_reads_conditioning(self, tilt, status):
        # the residual is finite only at the start, so every trial step is
        # rejected: the run stops in its first iteration, and the status
        # depends only on the conditioning of J^T J there
        x = np.linspace(0.0, 1.0, 20)
        J = np.column_stack([np.ones_like(x), np.ones_like(x) + tilt * x])

        def residual(p):
            return J @ p - (2.0 - 3.0 * x) if not p.any() else np.full(x.size, np.nan)

        res = minimize(FitProblem(residual, [Parameter("a", 0.0), Parameter("b", 0.0)],
                                  jacobian=lambda p: J))
        lam = np.linalg.eigvalsh(J.T @ J)
        assert (lam[-1] / lam[0] > estimation.COND_MAX) == (status == "rank_deficient")
        assert (res.status, res.iterations, res.nfev) == (status, 1, 51)
        assert res.params == {"a": 0.0, "b": 0.0}

    def test_overflowing_normal_matrix_rejects_every_step(self):
        # J^T J overflows to inf on its diagonal: the damped matrix then
        # holds nan (0 * inf undamped, inf * 0 off the diagonal once damped),
        # so no step is taken and the run ends rank_deficient
        x = np.linspace(0.0, 1.0, 20)
        J = np.column_stack([np.full(x.size, 1e200), x])
        with np.errstate(over="ignore", invalid="ignore"):
            res = minimize(FitProblem(lambda p: J @ p - 1.0,
                                      [Parameter("a", 2e-200), Parameter("b", 0.0)],
                                      jacobian=lambda p: J))
        assert (res.status, res.iterations, res.nfev) == ("rank_deficient", 1, 51)
        assert res.cond == math.inf
        assert res.params == {"a": 2e-200, "b": 0.0}

    def test_table_lists_parameters_and_status(self):
        x = np.linspace(0, 1, 20)
        res = minimize(FitProblem(lambda p: p[0] + p[1] * x - (2.0 - 3.0 * x),
                                  [Parameter("c0", 0.0), Parameter("c1", 0.5, fixed=True)],
                                  lambda p: np.vander(x, 2, increasing=True)))
        lines = res.table().splitlines()
        assert lines[0].split() == ["parameter", "value", "std", "error"]
        assert [ln.split()[0] for ln in lines[1:3]] == ["c0", "c1"]
        assert float(lines[2].split()[1]) == 0.5
        assert float(lines[2].split()[2]) == 0.0
        assert lines[3].startswith(f"status: {res.status}  iterations: {res.iterations}")


class TestExtinctionFit:
    def _trace(self, a, b, psi, rabi=0.0, grid=None):
        model = ExtinctionModel(A=a, B=b, psi=psi, mol=MOL,
                                drive=DriveParams(rabi=rabi, psi=psi))
        g = np.linspace(-140, 140, 281) if grid is None else grid
        return extinction_spectrum(model, g)

    def test_round_trip_dispersive(self, monkeypatch):
        # a single trace determines only (A - B*gamma/2*sin(psi), B*cos(psi));
        # with A pinned, B and psi are both identifiable
        tr = self._trace(0.0, 8.0, 0.3)
        monkeypatch.setattr(estimation, "GTOL", 1e-13)
        monkeypatch.setattr(estimation, "XTOL", 1e-15)
        monkeypatch.setattr(estimation, "MAX_ITER", 2000)
        res = fit_extinction(tr, fixed=("A",), init={"A": 0.0})
        assert res.converged
        assert res.params["psi"] == pytest.approx(0.3, abs=1e-8)
        assert res.params["gamma"] == pytest.approx(MOL.gamma, rel=1e-8)
        assert res.params["B"] == pytest.approx(8.0, rel=1e-6)
        assert res.params["baseline"] == pytest.approx(1.0, rel=1e-8)

    def test_single_trace_a_b_degeneracy(self):
        # the A term and the B*sin(psi) term are both proportional to the
        # bare Lorentzian, so two distinct triples can generate the same
        # spectrum; the fitter must land on the same (zero) cost either way
        g = np.linspace(-140, 140, 281)
        t1 = self._trace(0.4, 8.0, 0.3, grid=g)
        l0_coeff = MOL.gamma / 2.0
        # move the A weight into the sin(psi) channel
        b_eff = math.hypot(8.0 * math.cos(0.3), 8.0 * math.sin(0.3) - 0.4 / l0_coeff)
        psi_eff = math.atan2(8.0 * math.sin(0.3) - 0.4 / l0_coeff, 8.0 * math.cos(0.3))
        t2 = self._trace(0.0, b_eff, psi_eff, grid=g)
        assert np.allclose(t1.values, t2.values, rtol=0, atol=1e-14)

    def test_round_trip_pure_dip_depth(self):
        # at psi = pi/2 the A and B terms are degenerate in a single trace;
        # the identifiable quantities are the net dip depth and the width
        l0 = 4.0 / MOL.gamma**2
        tr = self._trace(0.0, 0.115 / (l0 * MOL.gamma / 2.0), math.pi / 2.0)
        res = fit_extinction(tr, fixed=("A",), init={"A": 0.0})
        assert res.converged
        dip = 1.0 - extinction_fit_model(
            np.array([res.params["center"]]), res.params["gamma"], res.params["A"],
            res.params["B"], res.params["psi"], res.params["center"],
            res.params["baseline"])[0]
        assert dip == pytest.approx(0.115, abs=1e-8)
        assert res.params["gamma"] == pytest.approx(MOL.gamma, rel=1e-6)

    def test_power_broadened_width(self):
        s = 3.0
        tr = self._trace(2.0, 0.0, 0.0, rabi=rabi_for_saturation(MOL, s))
        res = fit_extinction(tr, fixed=("B", "psi"), init={"B": 0.0, "psi": 0.0})
        assert res.params["gamma"] == pytest.approx(
            MOL.gamma * math.sqrt(1 + s), rel=1e-6)

    def test_narrow_window_rejected(self):
        tr = self._trace(0.0, 5.0, math.pi / 2.0, grid=np.linspace(-8, 8, 33))
        with pytest.raises(ValueError):
            fit_extinction(tr)

    def test_fewer_points_than_free_parameters_rejected(self):
        # rejected before the line-shape seed, which would reach LAPACK
        for n in (0, 1, 5):
            tr = SpectrumTrace(np.arange(float(n)), np.ones(n))
            with pytest.raises(ValueError, match=f"{n} points, fewer than the 6 free"):
                fit_extinction(tr)
        tr = SpectrumTrace(np.arange(3.0), np.ones(3))
        with pytest.raises(ValueError, match="fewer than the 4 free"):
            fit_extinction(tr, fixed=("A", "psi"), init={"A": 0.0, "psi": 0.0})

    @pytest.mark.parametrize("psi", [0.4, 2.0, -2.5, -0.7])   # one per quadrant
    def test_jacobian_matches_central_differences(self, psi):
        tr = self._trace(2.0, 5.0, psi)
        ((problem, _),) = _fits(fit_extinction, tr)
        # off the trace's line: another centre, width and baseline
        _assert_jacobian_matches_central_differences(
            problem, np.array([1.5, 4.0, psi, 24.0, -7.0, 0.9]))

    @pytest.mark.parametrize("line, fixed, init", [
        ((1.0, 0.0, 0.0), ("B", "psi"), {"B": 0.0, "psi": 0.0}),
        ((0.0, 5.0, math.pi / 2.0), ("A", "psi", "baseline", "center", "gamma"),
         {"A": 0.0, "psi": math.pi / 2.0, "baseline": 1.0, "center": 0.0, "gamma": MOL.gamma}),
        ((0.0, 5.0, math.pi / 2.0), ("A", "psi", "baseline"),
         {"A": 0.0, "psi": math.pi / 2.0, "baseline": 1.0}),
    ], ids=["criterion-2", "criterion-8", "criterion-9"])
    def test_jacobian_with_fixed_parameters(self, line, fixed, init):
        # the acceptance criteria's fixed sets: every column checked at the
        # start point, where B = 0 makes the psi column vanish, and the fit
        # takes the free columns only
        ((problem, res),) = _fits(fit_extinction, self._trace(*line), fixed=fixed, init=init)
        start = np.array([par.value for par in problem.params])
        _assert_jacobian_matches_central_differences(problem, start)
        _assert_jacobian_matches_central_differences(problem, start * 1.1 + 0.3)
        assert res.converged and res.njev == res.iterations + 1
        assert res.param_order == [n for n in res.params if n not in fixed]

    def test_jacobian_counts(self):
        # one Jacobian per iteration plus one for the errors; a noisy
        # six-free line at S = 1 (singular: one trace cannot separate A, B
        # and psi) takes at most 20 residual calls
        res = fit_extinction(self._trace(2.0, 5.0, 0.4))
        assert res.converged and res.njev == res.iterations + 1
        line = ExtinctionModel(A=2.0, B=3.0, psi=1.2, mol=MOL,
                               drive=DriveParams(rabi=rabi_for_saturation(MOL, 1.0)))
        det = DetectorParams(dark_rate=0.0, integration_time=0.16)
        grid = np.linspace(-140.0, 140.0, 201)
        for seed in range(10):
            res = fit_extinction(noisy_extinction_trace(line, grid, 127550.0, det, seed))
            assert res.converged and res.njev == res.iterations + 1
            assert res.nfev <= 20


class TestRefineLine:
    GRID = np.linspace(-150.0, 150.0, 201)

    def test_noiseless_line_from_a_rough_seed(self):
        # an asymmetric line, whose extremum is not its centre: one solve
        # recovers centre and width from a seed 6 MHz and 30% off
        values = extinction_fit_model(self.GRID, 40.0, 2.0, 6.0, -1.1, 3.0, 1.0)
        center, gamma = estimation._refine_line(SpectrumTrace(self.GRID, values), 9.0, 52.0)
        assert center == pytest.approx(3.0, abs=1e-9)
        assert gamma == pytest.approx(40.0, rel=1e-9)

    def test_flat_trace_keeps_the_seed(self):
        # no line: the linear system is singular
        flat = SpectrumTrace(self.GRID, np.ones_like(self.GRID))
        assert estimation._refine_line(flat, -150.0, 3.0) == (-150.0, 3.0)

    def test_real_poles_keep_the_seed(self):
        # 1 + 30 / (g^2 - 25) sampled away from its poles at +-5 MHz is
        # exactly the linearized model with w = -25 <= 0: no Lorentzian
        grid = np.linspace(10.0, 150.0, 141)
        trace = SpectrumTrace(grid, 1.0 + 30.0 / (grid * grid - 25.0))
        assert estimation._refine_line(trace, 12.0, 8.0) == (12.0, 8.0)


class TestSweeps:
    def test_linewidth_vs_power_round_trip(self):
        p_sat = 350.0
        spectra = []
        for p in (20.0, 150.0, 700.0, 3000.0):
            s = p / p_sat
            rabi = rabi_for_saturation(MOL, s)
            model = ExtinctionModel(A=1.5, B=0.0, psi=0.0, mol=MOL,
                                    drive=DriveParams(rabi=rabi))
            g = np.linspace(-400, 400, 401)
            spectra.append((p, extinction_spectrum(model, g)))
        table, res = fit_linewidth_vs_power(spectra)
        assert res.params["gamma"] == pytest.approx(MOL.gamma, rel=1e-3)
        assert res.params["p_sat"] == pytest.approx(p_sat, rel=1e-2)
        assert len(table) == 4

    def test_linewidth_jacobian_and_counts(self):
        spectra = [(p, extinction_spectrum(
            ExtinctionModel(A=1.5, B=0.0, psi=0.0, mol=MOL,
                            drive=DriveParams(rabi=rabi_for_saturation(MOL, p / 350.0))),
            np.linspace(-400, 400, 401))) for p in (20.0, 150.0, 700.0, 3000.0)]
        fits = _fits(fit_linewidth_vs_power, spectra)
        assert len(fits) == 5   # four line fits, then FWHM(P)
        for _, res in fits:
            assert res.converged and res.njev == res.iterations + 1
        problem = fits[-1][0]
        for p in ([17.0, 350.0], [25.0, 90.0]):
            _assert_jacobian_matches_central_differences(problem, np.array(p))

    def test_saturation_jacobian(self):
        # s = 1 (P = P_sat) is the coherent peak, where its d/dP_sat is 0;
        # a P = 0 point has a zero row in both channels
        powers = np.r_[0.0, 350.0, np.geomspace(5.0, 1e4, 41)]
        s = powers / 350.0
        ((problem, res),) = _fits(fit_saturation_curves, powers,
                                  3.0 * s / (1 + s) ** 2, 7.0 * s / (1 + s))
        assert res.converged and res.njev == res.iterations + 1
        jac = problem.jacobian(np.array([350.0, 3.0, 7.0]))
        assert jac[1, 0] == 0.0 and jac[1, 1] != 0.0
        n = powers.size
        assert not jac[[0, n], :].any()
        for p in ([350.0, 3.0, 7.0], [120.0, 2.0, 9.0]):
            _assert_jacobian_matches_central_differences(problem, np.array(p))

    def test_linewidth_needs_three_powers(self):
        with pytest.raises(RankDeficientError):
            fit_linewidth_vsp = fit_linewidth_vs_power([(1.0, None), (2.0, None)])

    def test_saturation_curves_round_trip(self):
        powers = np.geomspace(5.0, 1e4, 41)
        s = powers / 350.0
        res = fit_saturation_curves(powers, 3.0 * s / (1 + s) ** 2, 7.0 * s / (1 + s))
        assert res.converged
        assert res.params["p_sat"] == pytest.approx(350.0, rel=1e-8)
        assert res.params["a"] == pytest.approx(3.0, rel=1e-8)
        assert res.params["b"] == pytest.approx(7.0, rel=1e-8)

    def test_saturation_needs_two_decades(self):
        powers = np.geomspace(100.0, 1000.0, 11)
        s = powers / 350.0
        with pytest.raises(RankDeficientError):
            fit_saturation_curves(powers, s / (1 + s) ** 2, s / (1 + s))

    def test_saturation_zero_power_point_kept_out_of_span(self):
        # a 0 pW point carries zero signal: it stays in the fit, but the
        # decade span is taken over the positive powers, without a warning
        powers = np.r_[0.0, np.geomspace(5.0, 1e4, 41)]
        s = powers / 350.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_saturation_curves(powers, 3.0 * s / (1 + s) ** 2, 7.0 * s / (1 + s))
        assert res.converged
        assert res.params["p_sat"] == pytest.approx(350.0, rel=1e-8)
        with pytest.raises(RankDeficientError):
            fit_saturation_curves(np.zeros(5), np.zeros(5), np.zeros(5))

    def test_saturation_negative_power_rejected(self):
        powers = np.r_[-2.0, np.geomspace(5.0, 1e4, 41)]
        s = np.abs(powers) / 350.0
        with pytest.raises(ValueError, match="power must be >= 0, got -2"):
            fit_saturation_curves(powers, s / (1 + s) ** 2, s / (1 + s))
