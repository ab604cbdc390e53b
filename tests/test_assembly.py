import numpy as np
import pytest
import scipy.sparse as sp

from fevec.assembly import (BoundaryConditionSet, SparseSystem, apply_dirichlet,
                            assemble_mechanical, assemble_thermal, build_dof_map)
from fevec.errors import AssemblyError
from fevec.materials import MaterialProps, Plane
from fevec.mesh import (Element, ElementKind, Mesh, generate_split_square,
                        generate_structured_quads)
from fevec.solver import solve_system
from conftest import thermal_matrix
from kernel_oracles import element_coords, thermal_stiffness_q4

FE = ElementKind.FE_QUAD
VE = ElementKind.VE_POLY


def simple_props(**kw):
    base = dict(E=100.0, nu=0.3, conductivity=1.0, alpha=1e-5, T0=25.0,
                plane=Plane.STRESS)
    base.update(kw)
    return MaterialProps(**base)


class TestDofMap:
    def test_classification_partitions(self):
        mesh = generate_split_square(2.0, 1.0, 4, 2)
        dm = build_dof_map(mesh, "mechanical")
        assert dm.ndof == 2 * mesh.n_nodes
        classes = set(dm.classes.tolist())
        assert classes <= {"F", "I", "V"}
        for n in mesh.interface_nodes:
            assert dm.classes[2 * n] == "I" and dm.classes[2 * n + 1] == "I"
        assert (dm.classes == "F").sum() + (dm.classes == "I").sum() + \
               (dm.classes == "V").sum() == dm.ndof

    def test_orphan_node_rejected(self):
        nodes = [(0, 0), (1, 0), (1, 1), (0, 1), (5, 5)]
        mesh = Mesh(nodes, [Element(0, (0, 1, 2, 3), FE, 0)])
        with pytest.raises(AssemblyError, match="without any element"):
            build_dof_map(mesh, "thermal")


class TestAssembleThermal:
    def test_all_dirichlet_single_element(self):
        mesh = generate_structured_quads(1, 1, 1, 1)
        bcs = BoundaryConditionSet()
        for n in range(4):
            bcs.set_temperature(n, float(n))
        system = assemble_thermal(mesh, {0: simple_props()}, bcs)
        solution, diag = solve_system(system)
        assert diag.n_dof == 0
        assert np.allclose(solution, [0.0, 1.0, 2.0, 3.0])

    def test_interface_patch_linear_in_x(self):
        # FE|VE split, T=0 left, T=1 right, uniform conductivity: solution
        # is exactly linear in x (1D conduction oracle)
        mesh = generate_split_square(2.0, 1.0, 6, 3)
        bcs = BoundaryConditionSet()
        for n in mesh.nodes_with_label("left"):
            bcs.set_temperature(n, 0.0)
        for n in mesh.nodes_with_label("right"):
            bcs.set_temperature(n, 1.0)
        system = assemble_thermal(mesh, {0: simple_props()}, bcs)
        solution, _ = solve_system(system)
        exact = mesh.coords[:, 0] / 2.0
        assert np.abs(solution - exact).max() < 1e-9

    def test_ones_in_nullspace_before_bcs(self):
        mesh = generate_split_square(3.0, 2.0, 6, 4)
        system = assemble_thermal(mesh, {0: simple_props()}, BoundaryConditionSet())
        resid = system.matrix @ np.ones(system.dof_map.ndof)
        assert np.abs(resid).max() < 1e-9 * abs(system.matrix).max()

    def test_missing_material(self):
        mesh = generate_structured_quads(1, 1, 1, 1, region=3)
        with pytest.raises(AssemblyError, match=r"^mesh regions without material blocks: \[3\]$"):
            assemble_thermal(mesh, {0: simple_props()}, BoundaryConditionSet())

    def test_dirichlet_out_of_range(self):
        mesh = generate_structured_quads(1, 1, 1, 1)
        bcs = BoundaryConditionSet()
        bcs.set_temperature(99, 1.0)
        with pytest.raises(AssemblyError, match="99"):
            assemble_thermal(mesh, {0: simple_props()}, bcs)

    def test_flux_load_sign(self):
        mesh = generate_structured_quads(1, 1, 1, 1)
        bcs = BoundaryConditionSet()
        for (a, b) in mesh.edges_with_label("top"):
            bcs.flux_edges.append((a, b, -2.0))   # inward heating
        for n in mesh.nodes_with_label("bottom"):
            bcs.set_temperature(n, 0.0)
        system = assemble_thermal(mesh, {0: simple_props()}, bcs)
        assert system.rhs.sum() == pytest.approx(2.0)
        solution, _ = solve_system(system)
        assert all(solution[n] > 0 for n in mesh.nodes_with_label("top"))


class TestBlockStructure:
    def test_no_fe_ve_coupling_entries(self):
        mesh = generate_split_square(2.0, 1.0, 6, 3)
        system = assemble_thermal(mesh, {0: simple_props()}, BoundaryConditionSet())
        classes = system.dof_map.classes
        coo = system.matrix.tocoo()
        for i, j in zip(coo.row, coo.col):
            pair = {classes[i], classes[j]}
            assert pair != {"F", "V"}, f"stored coupling between F dof {i} and V dof {j}"

    def test_interface_block_additivity(self):
        # independently re-accumulate each side with the raw kernels and
        # compare the interface block against the coupled assembly
        mesh = generate_split_square(2.0, 1.0, 4, 2)
        mats = {0: simple_props()}
        system = assemble_thermal(mesh, mats, BoundaryConditionSet())
        n = system.dof_map.ndof
        k_fe = np.zeros((n, n))
        k_ve = np.zeros((n, n))
        for e in mesh.elements:
            coords = element_coords(mesh, e)
            if e.kind == FE:
                ke = thermal_stiffness_q4(coords, mats[0])
                target = k_fe
            else:
                ke = thermal_matrix(coords, mats[0])
                target = k_ve
            idx = np.array(e.vertices)
            target[np.ix_(idx, idx)] += ke
        iface = sorted(mesh.interface_nodes)
        full = system.matrix.toarray()
        combined = k_fe + k_ve
        sub = np.ix_(iface, iface)
        assert np.abs(full[sub] - combined[sub]).max() <= 1e-12 * np.abs(full[sub]).max()


class TestAssembleMechanical:
    def test_zero_without_loads(self):
        mesh = generate_split_square(2.0, 1.0, 4, 2)
        bcs = BoundaryConditionSet()
        for n in mesh.nodes_with_label("left"):
            bcs.set_displacement(n, 0.0, 0.0)
        system = assemble_mechanical(mesh, {0: simple_props()}, bcs, None)
        solution, _ = solve_system(system)
        assert np.abs(solution).max() == 0.0

    def test_rigid_modes_before_bcs(self):
        mesh = generate_split_square(2.0, 2.0, 4, 4)
        system = assemble_mechanical(mesh, {0: simple_props()},
                                     BoundaryConditionSet(), None)
        k = system.matrix
        n = mesh.n_nodes
        tx = np.tile([1.0, 0.0], n)
        ty = np.tile([0.0, 1.0], n)
        rot = np.column_stack((-mesh.coords[:, 1], mesh.coords[:, 0])).ravel()
        for mode in (tx, ty, rot):
            assert np.abs(k @ mode).max() < 1e-9 * abs(k).max()

    def test_plane_mismatch_warns(self):
        mesh = generate_split_square(2.0, 1.0, 2, 1)
        elements = [Element(e.id, e.vertices, e.kind, e.id % 2) for e in mesh.elements]
        mixed = Mesh(mesh.coords, elements, mesh.boundary_edges)
        mats = {0: simple_props(plane=Plane.STRESS), 1: simple_props(plane=Plane.STRAIN)}
        with pytest.warns(UserWarning, match="plane"):
            assemble_mechanical(mixed, mats, BoundaryConditionSet(), None)

    def test_traction_rhs(self):
        mesh = generate_structured_quads(2.0, 1.0, 2, 1)
        bcs = BoundaryConditionSet()
        for (a, b) in mesh.edges_with_label("top"):
            bcs.traction_edges.append((a, b, (0.0, 5.0)))
        system = assemble_mechanical(mesh, {0: simple_props()}, bcs, None)
        # total applied force = traction * loaded length
        assert system.rhs[1::2].sum() == pytest.approx(5.0 * 2.0)
        assert system.rhs[0::2].sum() == pytest.approx(0.0)


class TestApplyDirichlet:
    def test_two_spring_reduction(self):
        # two unit springs in series, end dofs prescribed: the reduced system
        # is the textbook 1x1 [2] with rhs u0 + u2
        k = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        system = SparseSystem.from_dense(k, np.zeros(3), {0: 0.5, 2: 2.0})
        red = apply_dirichlet(system)
        assert np.allclose(red.matrix.toarray(), [[2.0]])
        assert red.rhs == pytest.approx([2.5])
        full = red.recover(np.array([1.25]))
        assert np.allclose(full, [0.5, 1.25, 2.0])

    def test_constrain_everything(self):
        k = np.eye(2)
        system = SparseSystem.from_dense(k, np.zeros(2), {0: 3.0, 1: 4.0})
        red = apply_dirichlet(system)
        assert red.matrix.shape == (0, 0)
        assert np.allclose(red.recover(np.zeros(0)), [3.0, 4.0])

    def test_homogeneous_leaves_rhs(self):
        k = np.diag([2.0, 3.0, 4.0])     # no coupling to the constrained dof
        f = np.array([1.0, 2.0, 3.0])
        system = SparseSystem.from_dense(k, f, {2: 0.0})
        red = apply_dirichlet(system)
        assert np.allclose(red.rhs, [1.0, 2.0])

    def test_conflicting_values_rejected(self):
        bcs = BoundaryConditionSet()
        bcs.set_temperature(4, 1.0)
        with pytest.raises(AssemblyError, match="conflicting"):
            bcs.set_temperature(4, 2.0)
        bcs.set_displacement(3, 0.0, None)
        bcs.set_displacement(3, None, 1.0)      # merge is fine
        assert bcs.dirichlet_u[3] == (0.0, 1.0)
        with pytest.raises(AssemblyError, match="conflicting"):
            bcs.set_displacement(3, 0.5, None)

    def test_symmetry_preserved(self):
        mesh = generate_split_square(2.0, 1.0, 4, 2)
        bcs = BoundaryConditionSet()
        for n in mesh.nodes_with_label("left"):
            bcs.set_temperature(n, 2.0)
        system = assemble_thermal(mesh, {0: simple_props()}, bcs)
        red = apply_dirichlet(system)
        diff = abs(red.matrix - red.matrix.T).max()
        assert diff < 1e-14 * abs(red.matrix).max()


class TestDeterministicAssembly:
    def test_repeat_assembly_bit_identical(self):
        mesh = generate_split_square(2.0, 1.0, 6, 3)
        mats = {0: simple_props()}
        first = assemble_thermal(mesh, mats, BoundaryConditionSet()).matrix
        second = assemble_thermal(mesh, mats, BoundaryConditionSet()).matrix
        assert np.array_equal(first.data, second.data)
        assert np.array_equal(first.indices, second.indices)
        assert np.array_equal(first.indptr, second.indptr)
