import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from resfluor import polarization
from resfluor.estimation import RankDeficientError, extinction_fit_model
from resfluor.physics import (
    DriveParams,
    MoleculeParams,
    SeparationGeometry,
    axis_vector,
    normalize_phase,
    polarizer_matrix,
    qwp_matrix,
)
from resfluor.polarization import (
    DegenerateConfigurationError,
    separate_components,
    transform_extinction_triple,
)
from resfluor.spectra import ExtinctionModel, SpectrumTrace, extinction_spectrum
from resfluor.synth import noisy_extinction_trace
from resfluor.measurement import DetectorParams

MOL = MoleculeParams(gamma0=16.4, gamma=17.0, lambda21=590.0)
GEO = SeparationGeometry()


class TestElements:
    def test_axis_vector_convention(self):
        # angles measured from the lab y-axis (the laser polarization)
        assert np.allclose(axis_vector(0.0), [0.0, 1.0])
        assert np.allclose(axis_vector(math.pi / 2.0), [1.0, 0.0])

    def test_polarizer_projects(self):
        for ang in (0.0, 0.4, 1.3):
            p = polarizer_matrix(ang)
            assert np.allclose(p @ p, p, atol=1e-14)          # idempotent
            v = p @ axis_vector(ang + math.pi / 2.0)
            assert np.linalg.norm(v) < 1e-14                  # crossed axis blocked

    def test_polarizer_leakage(self):
        er = 1e-4
        p = polarizer_matrix(0.0, er)
        blocked = p @ np.array([1.0, 0.0], dtype=complex)
        assert np.vdot(blocked, blocked).real == pytest.approx(er, rel=1e-10)

    def test_qwp_retardance(self):
        q = qwp_matrix(0.0)
        fast = q @ axis_vector(0.0).astype(complex)
        slow = q @ axis_vector(math.pi / 2.0).astype(complex)
        rel = (slow[0] / np.linalg.norm(slow)) / (fast[1] / np.linalg.norm(fast))
        assert rel == pytest.approx(1j, abs=1e-14)            # quarter-wave phase
        # unitary: no intensity loss
        assert np.allclose(q @ q.conj().T, np.eye(2), atol=1e-14)

    def test_chain_order(self):
        geo = SeparationGeometry(polarizer_angle=1.0)
        want = polarizer_matrix(1.0) @ qwp_matrix(0.3)        # input side first
        assert np.allclose(geo.chain(0.3), want, atol=1e-15)
        assert not np.allclose(geo.chain(0.3), qwp_matrix(0.3) @ polarizer_matrix(1.0))


class TestTripleTransform:
    def test_identity_chain_normalizes_to_itself(self):
        e_l = np.array([0.0, 1.0], dtype=complex)
        a, b, psi = transform_extinction_triple(np.eye(2), e_l, 0.0, 2.0, 5.0, 0.8)
        assert (a, b) == pytest.approx((2.0, 5.0), rel=1e-14)
        assert psi == pytest.approx(0.8, abs=1e-14)

    def test_jones_brute_force_consistency(self):
        # the transmitted spectrum computed directly from the fields must
        # match the extinction model driven by the transformed triple.
        # scattered field: d * s * chi(Delta), chi = -(Delta - i gamma/2) * L
        rng = np.random.default_rng(5)
        e_l = np.array([0.0, 1.0], dtype=complex)
        d_ang = math.pi / 4.0
        d = axis_vector(d_ang).astype(complex)
        grid = np.linspace(-120.0, 120.0, 241)
        lor = 1.0 / (grid**2 + MOL.gamma**2 / 4.0)
        chi = -(grid - 1j * MOL.gamma / 2.0) * lor
        for _ in range(10):
            s = complex(rng.normal(0, 0.3), rng.normal(0, 0.3))
            theta = rng.uniform(0, math.pi)
            chain = GEO.chain(theta)
            u_l = chain @ e_l
            u_d = chain @ d
            brute = (np.abs(u_l[0] + u_d[0] * s * chi) ** 2
                     + np.abs(u_l[1] + u_d[1] * s * chi) ** 2) / np.vdot(u_l, u_l).real
            a_p, b_p, psi_p = transform_extinction_triple(
                chain, e_l, d_ang, abs(s) ** 2, 2.0 * abs(s), np.angle(s))
            model = ExtinctionModel(A=a_p, B=b_p, psi=psi_p, mol=MOL,
                                    drive=DriveParams(rabi=0.0, psi=psi_p))
            tr = extinction_spectrum(model, grid)
            assert np.max(np.abs(brute - tr.values)) < 1e-10

    def test_qwp_reshapes_b_term_only_rescales_a(self):
        # rotating the QWP changes the interference phase psi' while the
        # fluorescence term responds only through real intensity factors
        e_l = GEO.laser_vector()
        psis, amps = [], []
        for theta in np.linspace(0.0, math.pi, 7):
            a, b, psi = transform_extinction_triple(
                GEO.chain(theta), e_l, GEO.dipole_angle, 1.0, 1.0, math.pi / 2.0)
            psis.append(psi)
            amps.append(a)
        assert np.ptp(psis) > 1.0          # phase sweeps over a wide range
        assert min(amps) > 0.0             # A stays a positive rescaling

    def test_extinguished_laser_raises(self):
        # polarizer crossed with the laser: normalization undefined
        chain = polarizer_matrix(math.pi / 2.0)
        with pytest.raises(DegenerateConfigurationError):
            transform_extinction_triple(chain, np.array([0.0, 1.0], dtype=complex),
                                        math.pi / 4.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("e_l", [[0.0, 1.0, 0.0], [0.0], [math.nan, 1.0],
                                     [0.0, math.inf]])
    def test_laser_must_be_finite_jones_vector(self, e_l):
        with pytest.raises(ValueError, match="finite length-2"):
            transform_extinction_triple(GEO.chain(0.3), np.array(e_l), GEO.dipole_angle,
                                        1.0, 1.0, 0.0)

    def test_crossed_polarizer_kills_interference_in_counts(self):
        # with finite leakage the interference (B) term in absolute detected
        # counts vanishes with the leakage while the fluorescence (A) term
        # survives, because A' * |u_L|^2 is leakage-independent
        e_l = np.array([0.0, 1.0], dtype=complex)
        for er in (1e-4, 1e-8):
            chain = polarizer_matrix(math.pi / 2.0, er)
            u_l = chain @ e_l
            n = np.vdot(u_l, u_l).real
            a, b, _ = transform_extinction_triple(chain, e_l, math.pi / 4.0,
                                                  1.0, 1.0, 0.0)
            # |u_d|^2 of the 45 deg dipole: 0.5 through the pass axis plus
            # the er-scaled blocked component
            assert a * n == pytest.approx(0.5 * (1.0 + er), rel=1e-12)
            assert b * n < 2.0 * math.sqrt(er)


class TestSeparation:
    ANGLES = [math.radians(x) for x in (0.0, 36.0, 72.0, 108.0, 144.0)]

    def _series(self, a0, b0, psi0, noise_seed=None):
        drive = DriveParams(rabi=0.0)
        grid = np.linspace(-140.0, 140.0, 201)
        out = []
        for i, th in enumerate(self.ANGLES):
            ap, bp, pp = transform_extinction_triple(
                GEO.chain(th), GEO.laser_vector(), GEO.dipole_angle, a0, b0, psi0)
            model = ExtinctionModel(A=ap, B=bp, psi=pp, mol=MOL, drive=drive)
            if noise_seed is None:
                out.append((th, extinction_spectrum(model, grid)))
            else:
                det = DetectorParams(dark_rate=0.0, integration_time=0.16)
                out.append((th, noisy_extinction_trace(
                    model, grid, 127550.0, det, noise_seed + i)))
        return out

    def test_exact_round_trip(self):
        a0, b0, psi0 = 10.76, 3.48, math.pi / 2.0
        res = separate_components(self._series(a0, b0, psi0), GEO)
        assert res.converged
        assert res.params["A0"] == pytest.approx(a0, rel=1e-8)
        assert res.params["B0"] == pytest.approx(b0, rel=1e-8)
        assert normalize_phase(res.params["psi0"] - psi0) == pytest.approx(0.0, abs=1e-8)
        assert res.params["gamma"] == pytest.approx(MOL.gamma, rel=1e-8)

    def test_noisy_recovery(self):
        a0, b0, psi0 = 10.76, 3.48, math.pi / 2.0
        res = separate_components(self._series(a0, b0, psi0, noise_seed=100), GEO)
        assert res.params["A0"] == pytest.approx(a0, rel=0.05)
        assert res.params["B0"] == pytest.approx(b0, rel=0.05)
        assert abs(normalize_phase(res.params["psi0"] - psi0)) < math.radians(3.0)

    def test_needs_three_distinct_angles(self):
        series = self._series(5.0, 2.0, 1.0)
        with pytest.raises(RankDeficientError):
            separate_components(series[:2], GEO)
        degenerate = [(series[0][0], tr) for _, tr in series[:3]]
        with pytest.raises(RankDeficientError):
            separate_components(degenerate, GEO)

    def test_one_point_traces_are_rank_deficient(self):
        # the seed's smoothing needs three points: rejected before its mean
        series = [(th, SpectrumTrace(np.array([0.0]), np.array([0.9 + 0.01 * i]),
                                     value_kind="transmission"))
                  for i, th in enumerate(self.ANGLES)]
        with pytest.raises(RankDeficientError, match="1 points, too few to seed the line"):
            separate_components(series, GEO)

    def test_round_trip_mixed_grids_leaky_polarizer(self):
        # traces of different lengths and spans, seen through a polarizer
        # with coherent leakage: each trace must get its own angle's factors
        geo = SeparationGeometry(polarizer_extinction_ratio=1e-3)
        grids = [np.linspace(-140.0, 140.0, 201), np.linspace(-90.0, 160.0, 157),
                 np.linspace(-120.0, 100.0, 263), np.linspace(-150.0, 150.0, 96),
                 np.linspace(-100.0, 130.0, 310)]
        a0, b0, psi0 = 10.76, 3.48, 1.1
        series = []
        for th, grid in zip(self.ANGLES, grids):
            ap, bp, pp = transform_extinction_triple(
                geo.chain(th), geo.laser_vector(), geo.dipole_angle, a0, b0, psi0)
            model = ExtinctionModel(A=ap, B=bp, psi=pp, mol=MOL,
                                    drive=DriveParams(rabi=0.0))
            series.append((th, extinction_spectrum(model, grid)))
        res = separate_components(series, geo)
        assert res.converged
        assert res.params["A0"] == pytest.approx(a0, rel=1e-8)
        assert res.params["B0"] == pytest.approx(b0, rel=1e-8)
        assert normalize_phase(res.params["psi0"] - psi0) == pytest.approx(0.0, abs=1e-8)
        assert res.params["gamma"] == pytest.approx(MOL.gamma, rel=1e-8)
        assert res.params["center"] == pytest.approx(0.0, abs=1e-8)

    def test_extinguished_laser_rejected_before_fit(self, monkeypatch):
        # polarizer crossed with the laser: at theta = 0 the QWP fast axis is
        # along the laser, which then reaches the polarizer unchanged
        series = self._series(5.0, 2.0, 1.0)
        geo = SeparationGeometry(polarizer_angle=math.pi / 2.0)

        def no_fit(*args, **kwargs):
            raise AssertionError("minimize called on a degenerate geometry")

        monkeypatch.setattr(polarization, "minimize", no_fit)
        with pytest.raises(DegenerateConfigurationError):
            separate_components(series, geo)

    def test_converges_in_few_gauss_newton_steps(self):
        # a criterion-10 noisy series: the line's linearized seed and the
        # joint intrinsic seed land close enough for undamped Gauss-Newton
        # steps, and the closed-form Jacobian costs no residual evaluations
        res = separate_components(self._series(10.76, 3.48, math.pi / 2.0, noise_seed=0), GEO)
        assert res.converged
        assert res.iterations <= 3
        assert res.nfev <= 4
        assert res.njev == res.iterations + 1
        # noiseless, the seed is the solution
        res = separate_components(self._series(10.76, 3.48, math.pi / 2.0), GEO)
        assert res.converged
        assert res.iterations == 1

    def test_flat_series_converges(self):
        # no line at all: the line solve is singular and keeps the grid seed
        grid = np.linspace(-140.0, 140.0, 201)
        series = [(th, SpectrumTrace(grid, np.ones_like(grid))) for th in self.ANGLES]
        res = separate_components(series, GEO)
        assert res.converged

    @pytest.mark.parametrize("geo", [GEO, SeparationGeometry(polarizer_extinction_ratio=1e-3)],
                             ids=["default", "leaky"])
    def test_cached_chain_factors_equal_direct_overlaps(self, geo):
        series = self._series(5.0, 2.0, 1.0)
        sizes = (201, 7, 40, 201, 3)
        k_a, k_b, starts = polarization._series_factors(geo, tuple(self.ANGLES), sizes)
        assert starts.tolist() == [0, 201, 208, 248, 449]
        assert not (k_a.flags.writeable or k_b.flags.writeable or starts.flags.writeable)
        for th, lo, size in zip(self.ANGLES, starts, sizes):
            dd, overlap, n = polarization._jones_overlaps(geo.chain(th), geo.laser_vector(),
                                                          geo.dipole_angle)
            assert k_a[lo:lo + size].tobytes() == np.full(size, dd / n).tobytes()
            assert k_b[lo:lo + size].tobytes() == np.full(size, overlap / n).tobytes()
        separate_components(series, geo)
        info = polarization._series_factors.cache_info()
        separate_components(series, geo)
        again = polarization._series_factors.cache_info()
        assert (again.hits, again.misses) == (info.hits + 1, info.misses)

    def test_degenerate_geometry_raises_on_every_call(self):
        geo = SeparationGeometry(polarizer_angle=math.pi / 2.0)
        series = self._series(5.0, 2.0, 1.0)
        for _ in range(2):
            with pytest.raises(DegenerateConfigurationError):
                polarization._series_factors(geo, tuple(self.ANGLES), (201,) * 5)
            with pytest.raises(DegenerateConfigurationError):
                separate_components(series, geo)

    def test_empty_trace_is_rank_deficient_before_any_work(self, monkeypatch):
        # reduceat would read the next trace's first value for an empty one
        series = self._series(5.0, 2.0, 1.0)
        series[3] = (series[3][0], SpectrumTrace(np.array([]), np.array([]),
                                                 value_kind="transmission"))
        monkeypatch.setattr(polarization, "_series_factors",
                            mock.Mock(side_effect=AssertionError("factors built")))
        with pytest.raises(RankDeficientError,
                           match=rf"theta_qwp = {self.ANGLES[3]!r} rad is empty"):
            separate_components(series, GEO)

    def test_most_structured_trace_seeds_the_line(self, monkeypatch):
        # mixed lengths: the reduceat spans pick the trace of largest max - min
        grids = [np.linspace(-140.0, 140.0, n) for n in (201, 31, 95)]
        series = [(th, extinction_spectrum(ExtinctionModel(
            A=a, B=0.0, psi=0.0, mol=MOL, drive=DriveParams(rabi=0.0)), grid))
            for th, a, grid in zip(self.ANGLES, (1.0, 30.0, 4.0), grids)]
        spans = [float(tr.values.max() - tr.values.min()) for _, tr in series]
        assert int(np.argmax(spans)) == 1
        seen = []
        init_line = polarization.estimation._init_line
        monkeypatch.setattr(polarization.estimation, "_init_line",
                            lambda tr: seen.append(tr) or init_line(tr))
        separate_components(series, GEO)
        assert len(seen) == 1 and seen[0] is series[1][1]

    # noiseless series on mixed grids, (lo, hi, pixels) per trace, seen
    # through an ideal or a leaky polarizer
    LINE_DRAWS = dict(
        a0=st.floats(0.1, 50.0),
        b0=st.floats(0.1, 50.0),
        psi0=st.floats(-math.pi, math.pi),
        gamma=st.floats(5.0, 60.0),
        center=st.floats(-20.0, 20.0),
        extinction_ratio=st.sampled_from([0.0, 1e-3]),
        grids=st.lists(st.tuples(st.floats(-200.0, -60.0), st.floats(60.0, 200.0),
                                 st.integers(40, 300)), min_size=3, max_size=5),
    )

    def _line_series(self, geo, a0, b0, psi0, gamma, center, grids):
        series = []
        for th, (lo, hi, n) in zip(self.ANGLES, grids):
            ap, bp, pp = transform_extinction_triple(
                geo.chain(th), geo.laser_vector(), geo.dipole_angle, a0, b0, psi0)
            grid = np.linspace(lo, hi, n)
            series.append((th, SpectrumTrace(
                grid, extinction_fit_model(grid, gamma, ap, bp, pp, center, 1.0))))
        return series

    @given(**LINE_DRAWS)
    # the grid-quantized seed of the extremum of this asymmetric line sent
    # LM to A0 = 0, its bound, where it stopped "converged" at cost 5.3
    @example(a0=20.0, b0=40.0, psi0=-1.1, gamma=40.0, center=0.0, extinction_ratio=0.0,
             grids=[(-150.0, 150.0, 201)] * 5)
    def test_noiseless_round_trip(self, a0, b0, psi0, gamma, center, extinction_ratio,
                                  grids):
        geo = SeparationGeometry(polarizer_extinction_ratio=extinction_ratio)
        res = separate_components(
            self._line_series(geo, a0, b0, psi0, gamma, center, grids), geo)
        assert res.converged
        assert res.params["A0"] == pytest.approx(a0, rel=1e-8)
        assert res.params["B0"] == pytest.approx(b0, rel=1e-8)
        assert normalize_phase(res.params["psi0"] - psi0) == pytest.approx(0.0, abs=1e-8)
        assert res.params["gamma"] == pytest.approx(gamma, rel=1e-8)
        assert res.params["center"] == pytest.approx(center, abs=1e-8 * gamma)

    @given(**LINE_DRAWS)
    def test_jacobian_matches_central_differences(self, a0, b0, psi0, gamma, center,
                                                  extinction_ratio, grids):
        geo = SeparationGeometry(polarizer_extinction_ratio=extinction_ratio)
        series = self._line_series(geo, a0, b0, psi0, gamma, center, grids)

        class Captured(Exception):
            pass

        def capture(problem):
            raise Captured(problem)

        with mock.patch.object(polarization, "minimize", capture):
            with pytest.raises(Captured) as info:
                separate_components(series, geo)
        problem = info.value.args[0]
        p = np.array([a0, b0, psi0, gamma, center])
        jac = problem.jacobian(p)
        assert jac.shape == (sum(n for _, _, n in grids), 5)
        # steps well inside each parameter's scale of nonlinearity: the
        # residual is linear in A0 and B0, periodic in psi0, and varies with
        # gamma and center on the scale of gamma
        steps = 1e-4 * np.array([a0, b0, 1.0, gamma, gamma])
        for j, h in enumerate(steps):
            dp = np.zeros(5)
            dp[j] = h
            fd = (problem.residual(p + dp) - problem.residual(p - dp)) / (2.0 * h)
            assert np.max(np.abs(jac[:, j] - fd)) <= 1e-6 * np.max(np.abs(jac[:, j]))
