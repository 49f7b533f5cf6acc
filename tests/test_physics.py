import math

import numpy as np
import pytest

from resfluor.physics import (
    DriveParams,
    MoleculeParams,
    SeparationGeometry,
    coherent_emission_rate,
    cyclic_to_angular,
    incoherent_emission_rate,
    linewidth_from_lifetime,
    normalize_phase,
    rabi_for_saturation,
    saturation_parameter,
    total_emission_rate,
)

MOL = MoleculeParams(gamma0=16.4, gamma=17.0, lambda21=590.0,
                     alpha_dw=0.25, alpha_fc=0.3)


def test_cyclic_to_angular():
    for f in (0.1, 16.4, 356.0):
        assert cyclic_to_angular(f) == pytest.approx(2.0 * math.pi * f, rel=1e-15)


def test_normalize_phase_range_and_fixpoints():
    for psi in np.linspace(-20, 20, 401):
        w = normalize_phase(psi)
        assert -math.pi < w <= math.pi
        # same point on the circle
        assert math.cos(w) == pytest.approx(math.cos(psi), abs=1e-12)
        assert math.sin(w) == pytest.approx(math.sin(psi), abs=1e-12)
    assert normalize_phase(math.pi) == math.pi


def test_molecule_validation():
    with pytest.raises(ValueError):
        MoleculeParams(gamma0=-1.0, gamma=17.0, lambda21=590.0)
    with pytest.raises(ValueError):
        MoleculeParams(gamma0=16.4, gamma=16.0, lambda21=590.0)  # gamma < gamma0
    with pytest.raises(ValueError):
        MoleculeParams(gamma0=16.4, gamma=17.0, lambda21=-5.0)
    with pytest.raises(ValueError):
        MoleculeParams(gamma0=16.4, gamma=17.0, lambda21=590.0, alpha_dw=1.5)


def test_drive_validation_and_psi_wrap():
    with pytest.raises(ValueError):
        DriveParams(rabi=-1.0)
    with pytest.raises(ValueError):
        DriveParams(rabi=1.0, incident_rate=-1.0)
    d = DriveParams(rabi=1.0, psi=3.0 * math.pi)
    assert d.psi == pytest.approx(math.pi)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [
    lambda v: MoleculeParams(gamma0=16.4, gamma=v),
    lambda v: DriveParams(rabi=v),
    lambda v: DriveParams(rabi=1.0, psi=v),
    lambda v: DriveParams(rabi=1.0, incident_rate=v),
    lambda v: SeparationGeometry(dipole_angle=v),
    lambda v: SeparationGeometry(polarizer_angle=v),
], ids=["gamma", "rabi", "psi", "incident_rate", "dipole_angle", "polarizer_angle"])
def test_non_finite_values_rejected(build, bad):
    # nan passed every ordering check (nan < gamma0 is False), and inf
    # every lower bound; both lie outside every range of the domain
    with pytest.raises(ValueError, match="is outside the domain"):
        build(bad)


def test_linewidth_from_lifetime():
    # 1 / (2 pi tau): a 9.7 ns lifetime is a 16.4 MHz natural linewidth
    assert linewidth_from_lifetime(9.7) == pytest.approx(1e3 / (2.0 * math.pi * 9.7),
                                                         rel=1e-14)
    assert linewidth_from_lifetime(9.7) == pytest.approx(16.4, rel=1e-3)
    with pytest.raises(ValueError):
        linewidth_from_lifetime(0.0)


def test_saturation_parameter_shape():
    # on resonance: S = 2 Omega^2 / (gamma gamma0)
    s0 = saturation_parameter(MOL, DriveParams(rabi=10.0))
    assert s0 == pytest.approx(2.0 * 100.0 / (MOL.gamma * MOL.gamma0), rel=1e-14)


def test_rabi_for_saturation_inverts():
    for s in (1e-3, 0.3, 1.0, 40.0):
        back = saturation_parameter(MOL, DriveParams(rabi=rabi_for_saturation(MOL, s)))
        assert back == pytest.approx(s, rel=1e-12)
    with pytest.raises(ValueError):
        rabi_for_saturation(MOL, -0.1)


def test_emission_rate_laws():
    s = np.geomspace(1e-4, 1e4, 200)
    coh = np.array([coherent_emission_rate(x) for x in s])
    inc = np.array([incoherent_emission_rate(x) for x in s])
    tot = np.array([total_emission_rate(x) for x in s])
    assert np.allclose(coh + inc, tot, rtol=1e-14, atol=0)
    # weak drive: coherent dominates; strong drive: incoherent saturates at 1
    assert coh[0] / tot[0] > 0.999
    assert inc[-1] == pytest.approx(1.0, abs=1e-3)
    assert total_emission_rate(0.0) == 0.0
    with pytest.raises(ValueError):
        coherent_emission_rate(-1.0)
