import math

import numpy as np
import pytest

from fevec import fem
from fevec.assembly import BoundaryConditionSet, assemble_thermal
from fevec.errors import MeshError
from fevec.materials import MaterialProps, Plane
from fevec.mesh import Element, ElementKind, Mesh, validate_mesh
from fevec.vem import vertex_normal_lengths
from conftest import UNIT_SQUARE, edge_dict, polygon_row
from kernel_oracles import (mechanical_stiffness_q4, q4_shape_eval, thermal_load_q4,
                            thermal_stiffness_q4)

# Frozen closed form of the bilinear Laplacian stiffness on the unit square.
K_THERMAL_UNIT_SQUARE = np.array([[4, -1, -2, -1],
                                  [-1, 4, -1, -2],
                                  [-2, -1, 4, -1],
                                  [-1, -2, -1, 4]]) / 6.0


def fine_quadrature_thermal(coords, lam, n=10):
    """Independent oracle: n-by-n Gauss-Legendre integration of the same form."""
    pts, wts = np.polynomial.legendre.leggauss(n)
    k = np.zeros((4, 4))
    for xi, wx in zip(pts, wts):
        for eta, wy in zip(pts, wts):
            ev = q4_shape_eval(coords, xi, eta)
            k += wx * wy * lam * ev.detJ * (ev.B_T.T @ ev.B_T)
    return k


def fine_quadrature_mechanical(coords, d, n=10):
    pts, wts = np.polynomial.legendre.leggauss(n)
    k = np.zeros((8, 8))
    for xi, wx in zip(pts, wts):
        for eta, wy in zip(pts, wts):
            ev = q4_shape_eval(coords, xi, eta)
            k += wx * wy * ev.detJ * (ev.B_u.T @ d @ ev.B_u)
    return k


class TestShapeEval:
    def test_center_of_parent(self):
        ev = q4_shape_eval(UNIT_SQUARE, 0.0, 0.0)
        assert np.allclose(ev.N, 0.25)
        assert ev.detJ == pytest.approx(0.25)

    def test_nodal_interpolation(self):
        ev = q4_shape_eval(UNIT_SQUARE, -1.0, -1.0)
        assert np.allclose(ev.N, [1, 0, 0, 0])

    def test_partition_of_unity_and_gradients(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            xi, eta = rng.uniform(-1, 1, 2)
            ev = q4_shape_eval(UNIT_SQUARE, xi, eta)
            assert ev.N.sum() == pytest.approx(1.0)
            assert np.abs(ev.dN_dxi.sum(axis=1)).max() < 1e-14

    def test_rectangle_jacobian(self):
        rect = np.array([[0, 0], [2, 0], [2, 1], [0, 1]], float)
        for xi, eta, _ in fem.GAUSS_2X2:
            assert q4_shape_eval(rect, xi, eta).detJ == pytest.approx(0.5)

    def test_distorted_element_rejected(self, unit_props):
        # the Q4 kernels check no Jacobian: a bowtie quad is refused in front of
        # them, with the message of validate_mesh
        mesh = Mesh([(0, 0), (1, 1), (1, 0), (0, 1)], [Element(0, (0, 1, 2, 3), ElementKind.FE_QUAD, 0)])
        (violation,) = validate_mesh(mesh)
        with pytest.raises(MeshError) as info:
            assemble_thermal(mesh, {0: unit_props}, BoundaryConditionSet())
        assert str(info.value) == violation.message


class TestThermalStiffness:
    def test_unit_square_closed_form(self, unit_props):
        k = thermal_stiffness_q4(UNIT_SQUARE, unit_props)
        assert np.abs(k - K_THERMAL_UNIT_SQUARE).max() < 1e-14

    def test_matches_fine_quadrature_on_general_quad(self, unit_props):
        quad = np.array([[0, 0], [1.5, 0.1], [1.3, 1.2], [-0.2, 0.9]])
        k = thermal_stiffness_q4(quad, unit_props)
        # 2x2 Gauss is not exact on non-affine quads, but must be close
        ref = fine_quadrature_thermal(quad, 1.0)
        assert np.abs(k - ref).max() < 5e-3 * np.abs(ref).max()

    def test_quadrature_exact_on_parallelogram(self, unit_props):
        para = np.array([[0, 0], [2, 0.3], [2.5, 1.5], [0.5, 1.2]])
        k = thermal_stiffness_q4(para, unit_props)
        ref = fine_quadrature_thermal(para, 1.0, n=4)
        assert np.abs(k - ref).max() < 1e-12 * np.abs(ref).max()

    def test_constant_field_nullspace(self, unit_props):
        quad = np.array([[0, 0], [2, 0.1], [1.9, 1.4], [0.1, 1.1]])
        k = thermal_stiffness_q4(quad, unit_props)
        assert np.abs(k @ np.ones(4)).max() < 1e-13 * np.abs(k).max()

    def test_conductivity_scaling(self):
        base = MaterialProps(E=1, nu=0, conductivity=1.0, alpha=0, T0=0)
        triple = MaterialProps(E=1, nu=0, conductivity=3.0, alpha=0, T0=0)
        k1 = thermal_stiffness_q4(UNIT_SQUARE, base)
        k3 = thermal_stiffness_q4(UNIT_SQUARE, triple)
        assert np.allclose(k3, 3.0 * k1)

    def test_linear_patch_fluxes(self, unit_props):
        # K @ (a + b x + c y at nodes) equals the exact boundary flux
        # integrals, computed from the closed-form vertex normal weights.
        quad = np.array([[0, 0], [2, 0.2], [2.2, 1.7], [-0.3, 1.5]])
        b, c = 1.7, -0.6
        t_nodal = 0.4 + b * quad[:, 0] + c * quad[:, 1]
        d_i = vertex_normal_lengths(polygon_row(quad))
        expected = d_i @ np.array([b, c])
        got = thermal_stiffness_q4(quad, unit_props) @ t_nodal
        assert np.abs(got - expected).max() < 1e-12 * np.abs(expected).max()

    def test_symmetry(self, unit_props):
        quad = np.array([[0, 0], [1.4, 0.2], [1.2, 1.1], [0.2, 0.8]])
        k = thermal_stiffness_q4(quad, unit_props)
        assert np.abs(k - k.T).max() < 1e-12 * np.abs(k).max()

    def test_assembled_patch_interior_residual(self, unit_props):
        # assembled structured patch: K @ T_linear vanishes at interior nodes
        from fevec.assembly import BoundaryConditionSet, assemble_thermal
        from fevec.mesh import generate_structured_quads
        mesh = generate_structured_quads(3.0, 2.0, 3, 3)
        system = assemble_thermal(mesh, {0: unit_props}, BoundaryConditionSet())
        t_lin = 0.7 + 1.3 * mesh.coords[:, 0] - 2.1 * mesh.coords[:, 1]
        resid = system.matrix @ t_lin
        boundary = {n for (a, b), es in edge_dict(mesh).items()
                    if len(es) == 1 for n in (a, b)}
        interior = [n for n in range(mesh.n_nodes) if n not in boundary]
        assert interior and np.abs(resid[interior]).max() < 1e-10


class TestMechanicalStiffness:
    def test_unit_square_k11(self, unit_props):
        k = mechanical_stiffness_q4(UNIT_SQUARE, unit_props)
        ref = fine_quadrature_mechanical(UNIT_SQUARE, np.diag([1.0, 1.0, 0.5]))
        assert k[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert np.abs(k - ref).max() < 1e-12

    def test_rigid_modes(self, steel_props):
        quad = np.array([[0.2, 0.1], [2, 0], [2.3, 1.8], [0, 1.5]])
        k = mechanical_stiffness_q4(quad, steel_props)
        tx = np.tile([1.0, 0.0], 4)
        ty = np.tile([0.0, 1.0], 4)
        rot = np.column_stack((-quad[:, 1], quad[:, 0])).ravel()
        norm = np.abs(k).max()
        for mode in (tx, ty, rot):
            assert np.abs(k @ mode).max() < 1e-10 * norm

    def test_symmetry_and_psd(self, steel_props):
        quad = np.array([[0, 0], [1.1, 0.2], [1.3, 1.4], [-0.1, 1.2]])
        k = mechanical_stiffness_q4(quad, steel_props)
        assert np.abs(k - k.T).max() < 1e-12 * np.abs(k).max()
        assert np.linalg.eigvalsh(k).min() > -1e-10 * np.abs(k).max()


class TestThermalLoad:
    def test_zero_at_reference(self, steel_props):
        f = thermal_load_q4(UNIT_SQUARE, steel_props, np.full(4, steel_props.T0))
        # N @ T carries rounding, so "zero" means at interpolation round-off
        assert np.abs(f).max() < 1e-12

    def test_sign_flip(self, steel_props):
        t0 = steel_props.T0
        hot = thermal_load_q4(UNIT_SQUARE, steel_props, np.full(4, t0 + 40))
        cold = thermal_load_q4(UNIT_SQUARE, steel_props, np.full(4, t0 - 40))
        assert np.allclose(hot, -cold)

    def test_uniform_expansion_analytic(self, unit_props):
        # constant stress D @ eps_th integrated against B^T: each corner of
        # the unit square receives +-dT/2 per component
        d_t = 3.0
        f = thermal_load_q4(UNIT_SQUARE, unit_props, np.full(4, d_t))
        expected = 0.5 * d_t * np.array([-1, -1, 1, -1, 1, 1, -1, 1], float)
        assert np.allclose(f, expected, atol=1e-14)


class TestEdgeLoads:
    def test_zero_flux(self):
        assert np.allclose(fem.flux_load_edge(np.array([0, 0]), np.array([1, 0]), 0.0), 0.0)

    def test_unit_flux_length_two(self):
        f = fem.flux_load_edge(np.array([0.0, 0.0]), np.array([2.0, 0.0]), 1.0)
        assert np.allclose(f, [-1.0, -1.0])

    def test_inward_heating_positive_loads(self):
        # prescribed outward flux -1000 mW/mm^2 (heating) on a 1 mm edge
        f = fem.flux_load_edge(np.array([0.0, 4.48]), np.array([1.0, 4.48]), -1.0)
        assert np.all(f > 0)
        assert f.sum() == pytest.approx(1.0)

    def test_zero_length_edge_rejected(self):
        with pytest.raises(MeshError):
            fem.flux_load_edge(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 1.0)

    def test_traction_halves(self):
        f = fem.traction_load_edge(np.array([0.0, 0.0]), np.array([0.0, 2.0]), (0.0, 5.0))
        assert np.allclose(f, [0, 5, 0, 5])
