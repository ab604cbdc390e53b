import numpy as np
import pytest

from fevec import vem
from fevec.materials import MaterialProps, Plane
from conftest import (UNIT_SQUARE, elastic_matrix, elastic_row, polygon_family, polygon_row,
                      thermal_load_row, thermal_matrix, thermal_row)
from kernel_oracles import thermal_stiffness_q4


def props(E=1.0, nu=0.0, lam=1.0, alpha=1.0, T0=0.0, plane=Plane.STRESS):
    return MaterialProps(E=E, nu=nu, conductivity=lam, alpha=alpha, T0=T0, plane=plane)


def linear_samples(coords, geom):
    """Nodal values of the three scaled monomials (columns)."""
    sc = vem.scaled_coords(coords, geom)
    return np.column_stack((np.ones(len(coords)), sc[:, 0], sc[:, 1]))


class TestThermalProjection:
    def test_unit_square_energy_matrix(self):
        p = thermal_row(UNIT_SQUARE, props())
        # area/h^2 with h = sqrt(2)
        assert p.G_energy[1, 1] == pytest.approx(0.5, rel=1e-12)
        assert p.G_energy[2, 2] == pytest.approx(0.5, rel=1e-12)
        assert p.G_energy[1, 2] == pytest.approx(0.0, abs=1e-14)

    def test_polynomial_reproduction(self):
        for poly in polygon_family(seed=1, count=40):
            p = thermal_row(poly, props())
            for beta in range(3):
                coeffs = p.Pi_star @ p.D[:, beta]
                expected = np.zeros(3)
                expected[beta] = 1.0
                assert np.abs(coeffs - expected).max() < 1e-10

    def test_constant_preserved(self):
        poly = polygon_family(seed=2, count=1)[0]
        p = thermal_row(poly, props())
        assert np.allclose(p.Pi @ np.ones(len(poly)), 1.0)

    def test_row_sums_one(self):
        for poly in polygon_family(seed=3, count=10):
            p = thermal_row(poly, props())
            assert np.abs(p.Pi.sum(axis=1) - 1.0).max() < 1e-10


class TestThermalStiffness:
    def test_constant_nullspace(self):
        for poly in polygon_family(seed=4, count=20):
            k = thermal_matrix(poly, props(lam=2.5))
            assert np.abs(k @ np.ones(len(poly))).max() < 1e-12 * np.abs(k).max()

    def test_linear_data_pure_consistency(self):
        # stabilization annihilates nodal samples of the monomials
        for poly in polygon_family(seed=5, count=20):
            geom = polygon_row(poly)
            p = thermal_row(poly, props())
            k = thermal_matrix(poly, props())
            k_c = p.Pi_star.T @ p.G_energy @ p.Pi_star
            d = linear_samples(poly, geom)
            assert np.abs((k - k_c) @ d).max() < 1e-10 * np.abs(k).max()

    def test_energy_matches_exact_for_linear_fields(self):
        # d^T K d = lam * area * |grad p|^2 for p in {zeta, rho, zeta+rho}
        lam = 3.7
        for poly in polygon_family(seed=6, count=15):
            geom = polygon_row(poly)
            k = thermal_matrix(poly, props(lam=lam))
            d = linear_samples(poly, geom)
            g2 = lam * geom.area / geom.h ** 2
            for vec, exact in ((d[:, 1], g2), (d[:, 2], g2), (d[:, 1] + d[:, 2], 2 * g2)):
                assert vec @ (k @ vec) == pytest.approx(exact, rel=1e-9)

    def test_fem_vem_agree_on_linear_energy(self, unit_props):
        k_fe = thermal_stiffness_q4(UNIT_SQUARE, unit_props)
        k_ve = thermal_matrix(UNIT_SQUARE, unit_props)
        geom = polygon_row(UNIT_SQUARE)
        d = linear_samples(UNIT_SQUARE, geom)
        for beta in (1, 2):
            e_fe = d[:, beta] @ k_fe @ d[:, beta]
            e_ve = d[:, beta] @ k_ve @ d[:, beta]
            assert e_fe == pytest.approx(e_ve, rel=1e-12)

    def test_coordinate_scale_invariance(self):
        poly = polygon_family(seed=7, count=1)[0]
        k1 = thermal_matrix(poly, props())
        k2 = thermal_matrix(4.0 * poly, props())
        assert np.abs(k1 - k2).max() < 1e-12 * np.abs(k1).max()

    def test_conductivity_scaling(self):
        poly = polygon_family(seed=8, count=1)[0]
        k1 = thermal_matrix(poly, props(lam=1.0))
        k5 = thermal_matrix(poly, props(lam=5.0))
        assert np.allclose(k5, 5.0 * k1, rtol=1e-12)


class TestElasticProjection:
    def test_unit_square_m55(self):
        p = elastic_row(UNIT_SQUARE, props())
        assert p.M_energy[4, 4] == pytest.approx(0.5, rel=1e-12)

    def test_reproduction_of_all_modes(self):
        for poly in polygon_family(seed=9, count=40):
            p = elastic_row(poly, props(E=3.0, nu=0.25))
            for alpha in range(6):
                coeffs = p.Pi_star @ p.D_bar[:, alpha]
                expected = np.zeros(6)
                expected[alpha] = 1.0
                assert np.abs(coeffs - expected).max() < 1e-9

    def test_rigid_translation_strain_free(self):
        poly = polygon_family(seed=10, count=1)[0]
        p = elastic_row(poly, props())
        ux = np.zeros(2 * len(poly))
        ux[0::2] = 1.0
        coeffs = p.Pi_star @ ux
        assert np.abs(p.strain_basis @ coeffs).max() < 1e-12
        assert np.allclose(p.Pi @ ux, ux)


class TestElasticStiffness:
    def test_rigid_modes_nullspace(self):
        for poly in polygon_family(seed=11, count=20):
            k = elastic_matrix(poly, props(E=200.0, nu=0.3))
            n = len(poly)
            tx = np.tile([1.0, 0.0], n)
            ty = np.tile([0.0, 1.0], n)
            rot = np.column_stack((-poly[:, 1], poly[:, 0])).ravel()
            for mode in (tx, ty, rot):
                assert np.abs(k @ mode).max() < 1e-10 * np.abs(k).max()

    def test_consistency_energy_exact_for_strain_modes(self):
        mats = props(E=7.0, nu=0.2)
        from fevec.materials import elasticity_matrix
        dhat = elasticity_matrix(mats)
        for poly in polygon_family(seed=12, count=15):
            geom = polygon_row(poly)
            p = elastic_row(poly, mats)
            k = elastic_matrix(poly, mats)
            for alpha in (3, 4, 5):
                d = p.D_bar[:, alpha]
                eps = p.strain_basis[:, alpha]
                exact = geom.area * (eps @ dhat @ eps)
                assert d @ (k @ d) == pytest.approx(exact, rel=1e-9)

    def test_nullspace_dimensions(self):
        for poly in polygon_family(seed=13, count=25):
            kt = thermal_matrix(poly, props())
            ke = elastic_matrix(poly, props(E=10.0, nu=0.3))
            wt = np.linalg.eigvalsh(kt)
            we = np.linalg.eigvalsh(ke)
            assert (np.abs(wt) < 1e-9 * wt.max()).sum() == 1
            assert (np.abs(we) < 1e-9 * we.max()).sum() == 3

    def test_symmetry(self):
        for poly in polygon_family(seed=14, count=10):
            kt = thermal_matrix(poly, props())
            ke = elastic_matrix(poly, props(E=5.0, nu=0.1))
            assert np.abs(kt - kt.T).max() <= 1e-12 * np.abs(kt).max()
            assert np.abs(ke - ke.T).max() <= 1e-12 * np.abs(ke).max()

    def test_elastic_scale_invariance(self):
        poly = polygon_family(seed=15, count=1)[0]
        mats = props(E=100.0, nu=0.3)
        k1 = elastic_matrix(poly, mats)
        k2 = elastic_matrix(2.5 * poly, mats)
        assert np.abs(k1 - k2).max() < 1e-11 * np.abs(k1).max()

    def test_quad_as_polygon_patch_tractions(self):
        # linear displacement of a constant-stress state: K @ d equals the
        # exact boundary tractions integrated against the hat traces
        mats = props(E=30.0, nu=0.25)
        from fevec.materials import elasticity_matrix
        dhat = elasticity_matrix(mats)
        grad = np.array([[2e-3, -1e-3], [5e-4, 1.5e-3]])   # u = grad @ x
        eps = np.array([grad[0, 0], grad[1, 1], grad[0, 1] + grad[1, 0]])
        sigma = dhat @ eps
        for poly in polygon_family(seed=16, count=10):
            geom = polygon_row(poly)
            k = elastic_matrix(poly, mats)
            d = (grad @ poly.T).T.ravel()
            d_i = vem.vertex_normal_lengths(geom)
            f = np.zeros_like(d)
            f[0::2] = sigma[0] * d_i[:, 0] + sigma[2] * d_i[:, 1]
            f[1::2] = sigma[2] * d_i[:, 0] + sigma[1] * d_i[:, 1]
            assert np.abs(k @ d - f).max() < 1e-9 * max(np.abs(f).max(), 1e-30)


class TestVemThermalLoad:
    def test_zero_at_reference(self):
        poly = polygon_family(seed=17, count=1)[0]
        f = thermal_load_row(poly, props(T0=20.0), np.full(len(poly), 20.0))
        assert np.abs(f).max() == 0.0

    def test_sign_flip(self):
        poly = polygon_family(seed=18, count=1)[0]
        mats = props(T0=0.0)
        hot = thermal_load_row(poly, mats, np.full(len(poly), 30.0))
        cold = thermal_load_row(poly, mats, np.full(len(poly), -30.0))
        assert np.allclose(hot, -cold)

    def test_single_element_free_expansion(self):
        # one square VE element, pin + roller, uniform dT: stresses vanish
        from fevec.mesh import ElementKind, Mesh
        from fevec.assembly import BoundaryConditionSet
        from fevec.solver import run_pipeline
        from fevec.post import recover_stress
        mats = {0: props(E=100.0, nu=0.3, alpha=1e-5, T0=25.0)}
        nodes = [(0, 0), (2, 0), (2, 2), (0, 2)]
        mesh = Mesh(nodes, [(0, 1, 2, 3)], [ElementKind.VE_POLY], [0], {(0, 1): "bottom"})
        bcs = BoundaryConditionSet()
        for n in range(4):
            bcs.set_temperature(n, 125.0)
        bcs.set_displacement(0, 0.0, 0.0)
        bcs.set_displacement(1, None, 0.0)
        fields = run_pipeline(mesh, mats, bcs)
        stresses = recover_stress(mesh, mats, fields)
        scale = mats[0].E * mats[0].alpha * 100.0
        assert stresses[0].von_mises < 1e-8 * scale


class TestAcceptancePropertySweep:
    """Criterion-4 style sweep kept here at reduced size for fast feedback;
    the full 200-polygon suite runs in the acceptance module."""

    def test_sweep_small(self):
        mats = props(E=10.0, nu=0.3)
        for poly in polygon_family(seed=100, count=30):
            tp = thermal_row(poly, mats)
            ep = elastic_row(poly, mats)
            assert np.abs(tp.Pi @ tp.D - tp.D).max() < 1e-9
            assert np.abs(ep.Pi @ ep.D_bar - ep.D_bar).max() < 1e-9
