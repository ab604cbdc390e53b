import math
import tracemalloc

import numpy as np
import pytest

from fevec import bench
from fevec.assembly import BoundaryConditionSet, DofMap, assemble_mechanical, assemble_thermal
from fevec.config import BcSpec
from fevec.errors import AssemblyError, MeshError
from fevec.materials import MaterialProps, Plane
from fevec.mesh import (ElementKind, Mesh, generate_sandwich, generate_split_square,
                        generate_structured_quads, require_valid)
from fevec.solver import solve_system
from conftest import dof_classes, thermal_matrix, triangle_system
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
        dm = DofMap("mechanical", mesh)
        assert dm.ndof == 2 * mesh.n_nodes
        classes = dof_classes(dm)
        assert set(classes.tolist()) <= {"F", "I", "V"}
        for n in mesh.interface_nodes:
            assert classes[2 * n] == "I" and classes[2 * n + 1] == "I"
        assert (classes == "F").sum() + (classes == "I").sum() + \
               (classes == "V").sum() == dm.ndof

    def test_unknown_field_kind_rejected(self):
        with pytest.raises(AssemblyError, match=r"^unknown field kind 'pressure'$"):
            DofMap("pressure", generate_split_square(2.0, 1.0, 2, 1))

    def test_orphan_node_rejected(self):
        # refused by the validation gate, before any dof is numbered
        nodes = [(0, 0), (1, 0), (1, 1), (0, 1), (5, 5)]
        mesh = Mesh(nodes, [(0, 1, 2, 3)], [FE], [0])
        mats, bcs = {0: simple_props()}, BoundaryConditionSet()
        for assemble in (lambda: assemble_thermal(mesh, mats, bcs),
                         lambda: assemble_mechanical(mesh, mats, bcs, None)):
            with pytest.raises(MeshError, match=r"^nodes without any element: \[4\]$"):
                assemble()


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
        mesh = Mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2, 3)], [ElementKind.FE_QUAD], [3])
        with pytest.raises(AssemblyError, match=r"^mesh regions without material blocks: \[3\]$"):
            assemble_thermal(mesh, {0: simple_props()}, BoundaryConditionSet())

    def test_dirichlet_out_of_range(self):
        mesh = generate_structured_quads(1, 1, 1, 1)
        bcs = BoundaryConditionSet()
        bcs.set_temperature(99, 1.0)
        with pytest.raises(AssemblyError, match="99"):
            assemble_thermal(mesh, {0: simple_props()}, bcs)

    @pytest.mark.parametrize("node", [1.5, "3", -1, 4])
    @pytest.mark.parametrize("kind", ["temperature", "displacement", "flux", "traction"])
    def test_bad_boundary_node_rejected_by_both_assemblies(self, kind, node):
        mesh = generate_structured_quads(1, 1, 1, 1)      # nodes 0..3
        bcs = BoundaryConditionSet()
        {"temperature": lambda: bcs.set_temperature(node, 1.0),
         "displacement": lambda: bcs.set_displacement(node, 0.0, None),
         "flux": lambda: bcs.add_flux(0, node, 1.0),
         "traction": lambda: bcs.add_traction(node, 1, (1.0, 0.0))}[kind]()
        mats = {0: simple_props()}
        for assemble in (lambda: assemble_thermal(mesh, mats, bcs),
                         lambda: assemble_mechanical(mesh, mats, bcs, None)):
            with pytest.raises(AssemblyError, match=f"references node {node!r}, not an integer"):
                assemble()

    @pytest.mark.parametrize("bcs", [
        lambda: BoundaryConditionSet(dirichlet_T={True: 5.0, 0: 1.0}),
        lambda: BoundaryConditionSet(flux_edges=[(True, 2, 1.0)])], ids=["dirichlet_T", "flux"])
    def test_bool_boundary_node_rejected(self, bcs):
        # True equals node 1 as a number, but no node id is a bool
        mesh = generate_structured_quads(2, 1, 2, 1)
        with pytest.raises(AssemblyError, match="references node True, not an integer"):
            assemble_thermal(mesh, {0: simple_props()}, bcs())

    @pytest.mark.parametrize("field, bcs, message", [
        ("thermal", dict(flux_edges=[(2, 1, 1.0), (0, 5, 1.0)]), r"flux on edge \(0,5\)"),
        ("mechanical", dict(traction_edges=[(1, 4, (1.0, 0.0))]), r"traction on edge \(1,4\)"),
        ("thermal", dict(flux_edges=[(2, 2, 1.0)]), r"flux on edge \(2,2\)")],
        ids=["diagonal", "interior", "one-node"])
    def test_load_off_boundary_refused(self, field, bcs, message):
        # once the diagonal put -1.118 on node 5, the interior edge assembled, and the
        # one-node pair raised "flux edge has zero length" inside the kernel
        mesh = generate_structured_quads(2.0, 1.0, 2, 1)
        bcs = BoundaryConditionSet(**bcs)
        with pytest.raises(AssemblyError, match=message + ": not a boundary edge"):
            if field == "thermal":
                assemble_thermal(mesh, {0: simple_props()}, bcs)
            else:
                assemble_mechanical(mesh, {0: simple_props()}, bcs, None)

    def test_boundary_loads_in_either_order(self):
        mesh = generate_structured_quads(2.0, 1.0, 2, 1)
        thermal = assemble_thermal(mesh, {0: simple_props()},
                                   BoundaryConditionSet(flux_edges=[(2, 1, 1.0), (5, 2, 2.0)]))
        assert np.array_equal(thermal.rhs, [0.0, -0.5, -1.5, 0.0, 0.0, -1.0])
        mechanical = assemble_mechanical(mesh, {0: simple_props()}, BoundaryConditionSet(
            traction_edges=[(4, 3, (1.0, 2.0)), (0, 3, (0.5, 0.0))]), None)
        assert np.array_equal(mechanical.rhs, [0.25, 0, 0, 0, 0, 0, 0.75, 1, 0.5, 1, 0, 0])

    def test_flux_load_sign(self):
        mesh = generate_structured_quads(1, 1, 1, 1)
        bcs = BoundaryConditionSet()
        for (a, b) in mesh.edges_with_label("top"):
            bcs.add_flux(a, b, -2.0)   # inward heating
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
        classes = dof_classes(system.dof_map)
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

    def test_traction_rhs(self):
        mesh = generate_structured_quads(2.0, 1.0, 2, 1)
        bcs = BoundaryConditionSet()
        for (a, b) in mesh.edges_with_label("top"):
            bcs.add_traction(a, b, (0.0, 5.0))
        system = assemble_mechanical(mesh, {0: simple_props()}, bcs, None)
        # total applied force = traction * loaded length
        assert system.rhs[1::2].sum() == pytest.approx(5.0 * 2.0)
        assert system.rhs[0::2].sum() == pytest.approx(0.0)


class TestApplyDirichlet:
    def test_two_spring_reduction(self):
        # two unit springs in series, end dofs prescribed: the reduced system
        # is the textbook 1x1 [2] with rhs u0 + u2
        k = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        system = triangle_system(k, np.zeros(3), {0: 0.5, 2: 2.0})
        assert np.allclose(system.matrix.toarray(), [[2.0]])
        assert system.rhs == pytest.approx([2.5])
        full = system.recover(np.array([1.25]))
        assert np.allclose(full, [0.5, 1.25, 2.0])

    def test_constrain_everything(self):
        system = triangle_system(np.eye(3), np.zeros(3), {0: 3.0, 1: 4.0, 2: 5.0})
        assert system.matrix.shape == (0, 0)
        assert np.allclose(system.recover(np.zeros(0)), [3.0, 4.0, 5.0])

    def test_homogeneous_leaves_rhs(self):
        k = np.diag([2.0, 3.0, 4.0])     # no coupling to the constrained dof
        f = np.array([1.0, 2.0, 3.0])
        system = triangle_system(k, f, {2: 0.0})
        assert np.allclose(system.rhs, [1.0, 2.0])

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

    def test_nan_temperature_named_not_conflicting(self):
        bcs = BoundaryConditionSet()
        for _ in range(2):
            with pytest.raises(AssemblyError,
                               match=r"^temperature at node 0 must be a finite number, got nan$"):
                bcs.set_temperature(0, math.nan)
        assert not bcs.dirichlet_T

    @pytest.mark.parametrize("call, what", [
        (lambda bcs: bcs.set_temperature(0, 1e309), "temperature at node 0"),
        (lambda bcs: bcs.set_temperature(0, 10 ** 400), "temperature at node 0"),
        (lambda bcs: bcs.set_temperature(0, None), "temperature at node 0"),
        (lambda bcs: bcs.set_displacement(2, None, -math.inf), "displacement uy at node 2"),
        (lambda bcs: bcs.set_displacement(2, "0", None), "displacement ux at node 2"),
        (lambda bcs: bcs.add_flux(0, 1, math.nan), r"flux on edge \(0,1\)"),
        (lambda bcs: bcs.add_traction(0, 1, (0.0, math.inf)), r"traction on edge \(0,1\)"),
        # a bool is no boundary value: True once stored 1.0
        (lambda bcs: bcs.set_temperature(0, True), "temperature at node 0"),
        (lambda bcs: bcs.set_displacement(1, False, None), "displacement ux at node 1"),
        (lambda bcs: bcs.add_flux(0, 1, True), r"flux on edge \(0,1\)"),
        (lambda bcs: bcs.add_traction(0, 1, (True, 0.0)), r"traction on edge \(0,1\)"),
        (lambda bcs: BcSpec("dirichlet_T", (True,)), "dirichlet_T"),
    ])
    def test_non_finite_values_rejected(self, call, what):
        bcs = BoundaryConditionSet()
        with pytest.raises(AssemblyError, match=f"^{what} must be a finite number, got "):
            call(bcs)
        assert bcs == BoundaryConditionSet()

    @pytest.mark.parametrize("t", [(1.0,), 5.0, (1.0, 2.0, 3.0)])
    def test_traction_not_a_pair_named(self, t):
        bcs = BoundaryConditionSet()
        with pytest.raises(AssemblyError,
                           match=r"^traction on edge \(0,1\) must be a pair \(tx, ty\), got "):
            bcs.add_traction(0, 1, t)
        assert bcs == BoundaryConditionSet()

    @pytest.mark.parametrize("data, what", [
        (dict(dirichlet_T={0: 1.0, 3: math.nan}), "temperature at node 3"),
        (dict(flux_edges=[(0, 1, math.inf)]), r"flux on edge \(0,1\)"),
        (dict(dirichlet_u={2: (None, -math.inf)}), "displacement uy at node 2"),
        (dict(traction_edges=[(0, 1, (0.0, math.nan))]), r"traction on edge \(0,1\)"),
        (dict(traction_edges=[(0, 1, (1.0,))]), r"traction on edge \(0,1\)"),
    ])
    def test_constructor_data_passes_value_rule(self, data, what):
        with pytest.raises(AssemblyError, match=f"^{what} must be a "):
            BoundaryConditionSet(**data)

    @pytest.mark.parametrize("data, what", [
        (dict(flux_edges=[(0, 1)]), r"flux entry \(a, b, q\) must be 3 items, got \(0, 1\)"),
        (dict(traction_edges=[(0, 1)]),
         r"traction entry \(a, b, \(tx, ty\)\) must be 3 items, got \(0, 1\)"),
        (dict(dirichlet_u={0: 5.0}), r"displacement \(ux, uy\) at node 0 must be 2 items, got 5.0"),
        (dict(dirichlet_u={0: (1.0, 2.0, 3.0)}),
         r"displacement \(ux, uy\) at node 0 must be 2 items, got \(1.0, 2.0, 3.0\)"),
    ])
    def test_constructor_entry_of_wrong_shape_named(self, data, what):
        # these once escaped as a bare ValueError or TypeError
        with pytest.raises(AssemblyError, match=f"^{what}$"):
            BoundaryConditionSet(**data)

    def test_constructor_nan_temperature_refused_before_solve(self):
        # once, these values reached the solver and failed as a singular system
        mesh = generate_split_square(2.0, 1.0, 4, 2)
        with pytest.raises(AssemblyError, match="must be a finite number, got nan"):
            BoundaryConditionSet(dirichlet_T={n: math.nan for n in mesh.nodes_with_label("left")})

    def test_constructor_data_stored_as_by_the_methods(self):
        bcs = BoundaryConditionSet(dirichlet_T={0: np.int64(3)}, flux_edges=[(0, 1, 2)],
                                   dirichlet_u={1: [0, None]},
                                   traction_edges=[(0, 1, (np.float32(0.5), 2))])
        assert bcs.dirichlet_T == {0: 3.0} and type(bcs.dirichlet_T[0]) is float
        assert bcs.flux_edges == ((0, 1, 2.0),)
        assert bcs.dirichlet_u == {1: (0.0, None)}
        assert bcs.traction_edges == ((0, 1, (0.5, 2.0)),)

    def test_data_read_only(self):
        # the unknowns are numbered from these at assembly; only the methods may write
        bcs = BoundaryConditionSet(dirichlet_T={0: 1.0}, flux_edges=[(0, 1, 2.0)],
                                   dirichlet_u={1: (0.0, None)},
                                   traction_edges=[(0, 1, (0.5, 2.0))])
        with pytest.raises(TypeError):
            bcs.dirichlet_T[0] = math.nan
        with pytest.raises(TypeError):
            bcs.dirichlet_u[2] = (math.nan, None)
        with pytest.raises(TypeError):
            bcs.flux_edges[0] = (0, 1, math.nan)
        with pytest.raises(AttributeError):
            bcs.traction_edges.append((0, 1, (math.nan, 0.0)))
        for name in ("dirichlet_T", "flux_edges", "dirichlet_u", "traction_edges"):
            with pytest.raises(AttributeError):
                setattr(bcs, name, {})
        assert bcs == BoundaryConditionSet(dirichlet_T={0: 1.0}, flux_edges=[(0, 1, 2.0)],
                                           dirichlet_u={1: (0.0, None)},
                                           traction_edges=[(0, 1, (0.5, 2.0))])

    def test_values_stored_as_floats(self):
        bcs = BoundaryConditionSet()
        bcs.set_temperature(0, np.int64(3))
        bcs.set_displacement(1, 0, None)
        bcs.add_traction(0, 1, (np.float32(0.5), 2))
        assert bcs.dirichlet_T == {0: 3.0} and type(bcs.dirichlet_T[0]) is float
        assert bcs.dirichlet_u == {1: (0.0, None)}
        assert bcs.traction_edges == ((0, 1, (0.5, 2.0)),)

    def test_symmetry_preserved(self):
        mesh = generate_split_square(2.0, 1.0, 4, 2)
        bcs = BoundaryConditionSet()
        for n in mesh.nodes_with_label("left"):
            bcs.set_temperature(n, 2.0)
        system = assemble_thermal(mesh, {0: simple_props()}, bcs)
        diff = abs(system.matrix - system.matrix.T).max()
        assert diff < 1e-14 * abs(system.matrix).max()


class TestDeterministicAssembly:
    def test_repeat_assembly_bit_identical(self):
        mesh = generate_split_square(2.0, 1.0, 6, 3)
        mats = {0: simple_props()}
        first = assemble_thermal(mesh, mats, BoundaryConditionSet()).matrix
        second = assemble_thermal(mesh, mats, BoundaryConditionSet()).matrix
        assert np.array_equal(first.data, second.data)
        assert np.array_equal(first.indices, second.indices)
        assert np.array_equal(first.indptr, second.indptr)


def system_bytes(system) -> int:
    """Bytes of the free block and right-hand side an assembly returns."""
    m = system.matrix
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes + system.rhs.nbytes


def traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAssemblyMemory:
    @staticmethod
    def sandwich_problem():
        mesh = generate_sandwich(3, FE)
        case = bench.SandwichCase()
        return mesh, case.materials, case.make_bcs(mesh), np.linspace(25.0, 150.0, mesh.n_nodes)

    def test_peak_bounded_by_the_result(self):
        # Windowed assembly holds one window's scratch at a time.  Traced peak over
        # the bytes of the returned free block and rhs on sandwich level 3, numpy
        # 2.4: 2.36 (thermal) and 1.46 (mechanical) in either order, assembled
        # straight into the blocks.  Over the whole natural-order matrix and rhs,
        # when that was built and then sliced: 2.08 and 1.77; 6.93 and 4.84 with
        # the whole mesh in one piece.  The mesh's cached pattern, order and
        # validity are built first.
        mesh, materials, bcs, temperature = self.sandwich_problem()
        require_valid(mesh, materials)
        mesh.node_pattern
        mesh.dissection_order
        for order in (False, True):
            for assemble, bound in (
                    (lambda: assemble_thermal(mesh, materials, bcs, elimination_order=order), 2.5),
                    (lambda: assemble_mechanical(mesh, materials, bcs, temperature,
                                                 elimination_order=order), 2.25)):
                system, peak = traced_peak(assemble)
                assert peak <= bound * system_bytes(system), (order, peak / system_bytes(system))

    def test_first_assembly_builds_the_pattern_in_its_own_size(self):
        # The first assembly of a mesh builds its node pattern too.  Its traced peak
        # exceeds the next assembly's by 1.03 times the bytes of the pattern it
        # keeps (sandwich level 3, thermal); from one sort of every element's pair
        # keys it was 2.96 times.
        mesh, materials, bcs, _ = self.sandwich_problem()
        require_valid(mesh, materials)
        assert "node_pattern" not in vars(mesh)
        _, first = traced_peak(lambda: assemble_thermal(mesh, materials, bcs))
        _, cached = traced_peak(lambda: assemble_thermal(mesh, materials, bcs))
        pattern = sum(a.nbytes for a in mesh.node_pattern)
        assert first - cached <= 1.5 * pattern, (first - cached) / pattern
