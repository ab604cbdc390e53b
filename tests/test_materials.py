import math

import numpy as np
import pytest

from fevec.errors import AssemblyError
from fevec.materials import MaterialProps, Plane, elasticity_matrix, thermal_strain_voigt


def mk(E=10.0, nu=0.3, plane=Plane.STRESS, alpha=1e-5, T0=25.0):
    return MaterialProps(E=E, nu=nu, conductivity=0.4, alpha=alpha, T0=T0, plane=plane)


class TestElasticityMatrix:
    def test_plane_stress_d11(self):
        d = elasticity_matrix(mk(E=10.0, nu=0.3))
        assert d[0, 0] == pytest.approx(10.0 / 0.91, rel=1e-9)
        assert d[0, 0] == pytest.approx(10.98901, abs=1e-5)

    def test_nu_zero_collapses(self):
        d = elasticity_matrix(mk(E=7.0, nu=0.0))
        assert np.allclose(d, np.diag([7.0, 7.0, 3.5]))

    def test_symmetry(self):
        for nu in (0.0, 0.2, 0.45):
            for plane in Plane:
                d = elasticity_matrix(mk(nu=nu, plane=plane))
                assert d[0, 1] == d[1, 0]

    def test_positive_definite_grid(self):
        for e in np.linspace(1e3, 4e5, 6):
            for nu in np.linspace(0.0, 0.49, 8):
                for plane in Plane:
                    d = elasticity_matrix(mk(E=e, nu=nu, plane=plane))
                    assert np.linalg.eigvalsh(d).min() > 0

    def test_plane_strain_factor(self):
        e, nu = 100.0, 0.25
        d = elasticity_matrix(mk(E=e, nu=nu, plane=Plane.STRAIN))
        f = e / ((1 + nu) * (1 - 2 * nu))
        assert d[0, 0] == pytest.approx(f * (1 - nu))
        assert d[2, 2] == pytest.approx(f * (1 - 2 * nu) / 2)

    def test_invalid_props_rejected(self):
        with pytest.raises(AssemblyError):
            mk(E=-1.0)
        with pytest.raises(AssemblyError):
            mk(nu=0.5)
        with pytest.raises(AssemblyError):
            MaterialProps(E=1, nu=0.3, conductivity=0, alpha=0, T0=0)

    @pytest.mark.parametrize("name", ["E", "nu", "conductivity", "alpha", "T0"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_props_rejected(self, name, value):
        props = dict(E=10.0, nu=0.3, conductivity=1.0, alpha=1e-5, T0=25.0)
        props[name] = value
        with pytest.raises(AssemblyError, match=f"material {name} must be finite"):
            MaterialProps(**props)


class TestThermalStrain:
    def test_zero_at_reference(self):
        assert np.allclose(thermal_strain_voigt(mk(), 25.0), 0.0)

    def test_sintered_silver_value(self):
        props = mk(alpha=19e-6, T0=25.0)
        eps = thermal_strain_voigt(props, 150.0)
        assert eps[0] == pytest.approx(2.375e-3, rel=1e-12)
        assert eps[1] == pytest.approx(2.375e-3, rel=1e-12)
        assert eps[2] == 0.0

    def test_linearity(self):
        props = mk(alpha=3e-6, T0=20.0)
        one = thermal_strain_voigt(props, 30.0)
        two = thermal_strain_voigt(props, 40.0)
        assert np.allclose(two, 2.0 * one)

    def test_plane_strain_multiplier(self):
        ps = thermal_strain_voigt(mk(alpha=1e-5, nu=0.3), 125.0)
        pe = thermal_strain_voigt(mk(alpha=1e-5, nu=0.3, plane=Plane.STRAIN), 125.0)
        assert pe[0] == pytest.approx(1.3 * ps[0], rel=1e-12)
