"""Block-wise assembly and stress recovery against element-by-element loops.

FE quads go through the batched ``fem.*_batch`` kernels and VE polygons
through the stacked ``vem`` kernels, one block of elements at a time.  The
per-element kernels in ``kernel_oracles`` are the oracles: every block path
must agree with them within 1e-13 relative.  A mesh with a flawed element
or a region without material is refused before any block runs, with the
first message of ``validate_mesh`` or the missing regions.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fevec import fem, post
from fevec import mesh as meshmod
from fevec.assembly import BoundaryConditionSet, assemble_mechanical, assemble_thermal
from fevec.errors import AssemblyError, FevecError, MeshError, SolverError
from fevec.materials import (MaterialProps, Plane, elasticity_matrix, gather_materials,
                             thermal_strain_voigt)
from fevec.mesh import (ElementKind, Mesh, generate_plate_with_hole,
                        generate_structured_quads, shoelace_areas, validate_mesh)
from fevec.solver import SolutionFields
from conftest import element_table, polygon_family, polygon_row, random_polygon, window_blocks
import kernel_oracles as oracle
from kernel_oracles import element_coords, shoelace_area

FE = ElementKind.FE_QUAD
VE = ElementKind.VE_POLY
RTOL = 1e-13

MATERIALS = {
    0: MaterialProps(E=100.0, nu=0.3, conductivity=0.4, alpha=1e-5, T0=25.0),
    1: MaterialProps(E=300.0, nu=0.2, conductivity=0.1, alpha=2e-5, T0=20.0,
                     plane=Plane.STRAIN),
    2: MaterialProps(E=50.0, nu=0.35, conductivity=2.5, alpha=3e-5, T0=22.0),
}
PROPERTY_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True)


def rel_diff(a, b):
    a, b = np.asarray(a), np.asarray(b)
    scale = max(float(np.abs(b).max()), 1e-300)
    return float(np.abs(a - b).max()) / scale


def fe_stress_oracle(coords, props, ue, te):
    """Gauss-point-averaged stress of one quad from ``q4_shape_eval``."""
    dhat = elasticity_matrix(props)
    sigma = np.zeros(3)
    for xi, eta, _ in fem.GAUSS_2X2:
        ev = oracle.q4_shape_eval(coords, xi, eta)
        strain = ev.B_u @ ue
        if te is not None:
            strain = strain - thermal_strain_voigt(props, float(ev.N @ te))
        sigma += dhat @ strain
    return sigma / len(fem.GAUSS_2X2)


def thermal_oracle_kernel(e, coords, props):
    if e.kind == FE:
        return oracle.thermal_stiffness_q4(coords, props)
    return oracle.thermal_element_matrices(coords, props)


def reference_thermal(mesh):
    n = mesh.n_nodes
    k = np.zeros((n, n))
    for e in mesh.elements:
        idx = np.array(e.vertices)
        k[np.ix_(idx, idx)] += thermal_oracle_kernel(e, element_coords(mesh, e),
                                                     MATERIALS[e.region])
    return k


def reference_mechanical(mesh, temperature):
    n = 2 * mesh.n_nodes
    k = np.zeros((n, n))
    f = np.zeros(n)
    for e in mesh.elements:
        coords = element_coords(mesh, e)
        props = MATERIALS[e.region]
        t_nodal = temperature[list(e.vertices)]
        if e.kind == FE:
            ke = oracle.mechanical_stiffness_q4(coords, props)
            fe = oracle.thermal_load_q4(coords, props, t_nodal)
        else:
            proj = oracle.elastic_projection(coords, props)
            ke = oracle.elastic_element_matrices(coords, props, projection=proj)
            fe = oracle.vem_thermal_load(coords, props, t_nodal, projection=proj)
        idx = np.ravel([(2 * v, 2 * v + 1) for v in e.vertices])
        k[np.ix_(idx, idx)] += ke
        f[idx] += fe
    return k, f


def reference_stress(mesh, fields):
    out = []
    for e in mesh.elements:
        coords = element_coords(mesh, e)
        props = MATERIALS[e.region]
        verts = list(e.vertices)
        ue = fields.displacement[verts].ravel()
        te = fields.temperature[verts]
        if e.kind == FE:
            out.append(fe_stress_oracle(coords, props, ue, te))
        else:
            proj = oracle.elastic_projection(coords, props)
            out.append(oracle.projected_stress(proj, props, ue, te))
    return np.array(out)


def random_partition(seed):
    """Jittered quad grid or a triangle/quad plate, random kinds and regions."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        base = generate_plate_with_hole(0.5, 2.0, int(rng.integers(3, 7)), 2, 2, 1.0,
                                        split_ring=True)
    else:
        nx, ny = (int(v) for v in rng.integers(2, 6, 2))
        grid = generate_structured_quads(2.0, 1.0, nx, ny)
        coords = grid.coords.copy()
        interior = ((coords[:, 0] > 0) & (coords[:, 0] < 2.0) &
                    (coords[:, 1] > 0) & (coords[:, 1] < 1.0))
        coords[interior] += rng.uniform(-0.08, 0.08, (int(interior.sum()), 2))
        base = Mesh(coords, *element_table(grid), grid.boundary_edges)
    vertices, kinds, regions = element_table(base)
    for p, verts in enumerate(vertices):
        kinds[p] = VE if len(verts) != 4 or rng.random() < 0.5 else FE
        regions[p] = int(rng.integers(0, 3))
    return Mesh(base.coords, vertices, kinds, regions, base.boundary_edges)


def disjoint_polygons(seed):
    """VE mesh of unconnected 3-10-vertex polygons from ``polygon_family``."""
    rng = np.random.default_rng(seed)
    polygons = polygon_family(seed=seed, count=80)
    start = np.cumsum([0] + [len(poly) for poly in polygons])
    vertices = [tuple(range(start[k], start[k + 1])) for k in range(len(polygons))]
    regions = [int(rng.integers(0, 3)) for _ in polygons]
    return Mesh(np.concatenate(polygons), vertices, [VE] * len(polygons), regions)


class TestPolygonKernels:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_shoelace_areas_match_per_polygon(self, seed):
        polys = polygon_family(seed=seed, count=160)
        for n_v in range(3, 11):
            coords = np.array([p for p in polys if len(p) == n_v])
            areas = shoelace_areas(coords)
            assert [float(a) for a in areas] == [shoelace_area(c) for c in coords]

    @pytest.mark.parametrize("seed", [5, 6])
    def test_polygon_blocks_match_per_element(self, seed):
        mesh = disjoint_polygons(seed)
        assert {len(e.vertices) for e in mesh.elements} == set(range(3, 11))
        rng = np.random.default_rng(seed)
        temperature = rng.uniform(-50.0, 150.0, mesh.n_nodes)
        thermal = assemble_thermal(mesh, MATERIALS, BoundaryConditionSet())
        assert rel_diff(thermal.matrix.toarray(), reference_thermal(mesh)) <= RTOL
        system = assemble_mechanical(mesh, MATERIALS, BoundaryConditionSet(), temperature)
        k_ref, f_ref = reference_mechanical(mesh, temperature)
        assert rel_diff(system.matrix.toarray(), k_ref) <= RTOL
        assert rel_diff(system.rhs, f_ref) <= RTOL
        fields = SolutionFields(temperature=temperature,
                                displacement=rng.normal(size=(mesh.n_nodes, 2)))
        sigma = np.array([s.sigma for s in post.recover_stress(mesh, MATERIALS, fields)])
        assert rel_diff(sigma, reference_stress(mesh, fields)) <= RTOL

    def test_q4_batches_match_per_element(self):
        rng = np.random.default_rng(7)
        coords = np.array([random_polygon(rng, 4, scale=rng.uniform(0.1, 5.0),
                                          center=rng.uniform(-9, 9, 2), convex=True)
                           for _ in range(60)])
        regions = rng.integers(0, 3, len(coords))
        mats = gather_materials(MATERIALS, regions)
        temps = rng.uniform(0.0, 200.0, (len(coords), 4))
        disp = rng.normal(size=(len(coords), 8))
        q = fem.q4_batch_eval(coords)
        thermal = fem.thermal_stiffness_q4_batch(q, mats.conductivity)
        mech, load = fem.mechanical_q4_batch(q, mats, temps)
        mech_alone, no_load = fem.mechanical_q4_batch(q, mats, None)
        assert no_load is None and np.array_equal(mech_alone, mech)
        sigma = fem.stress_q4_batch(q, mats, disp, temps)
        for k, c in enumerate(coords):
            props = MATERIALS[regions[k]]
            assert rel_diff(thermal[k], oracle.thermal_stiffness_q4(c, props)) <= RTOL
            assert rel_diff(mech[k], oracle.mechanical_stiffness_q4(c, props)) <= RTOL
            assert rel_diff(load[k], oracle.thermal_load_q4(c, props, temps[k])) <= RTOL
            assert rel_diff(sigma[k], fe_stress_oracle(c, props, disp[k], temps[k])) <= RTOL

    def test_von_mises_batch_equals_scalar(self):
        rng = np.random.default_rng(8)
        sigma = rng.normal(scale=50.0, size=(200, 3))
        strain = rng.random(200) < 0.5
        nu = rng.uniform(0.0, 0.49, 200)
        batch = post.von_mises_batch(sigma, strain, nu)
        for k in range(200):
            plane = Plane.STRAIN if strain[k] else Plane.STRESS
            assert batch[k] == post.von_mises(sigma[k], plane, nu[k])


class TestMeshViews:
    def test_blocks_partition_elements_in_id_order(self):
        mesh = random_partition(3)
        seen = []
        for is_fe, pos, verts in window_blocks(mesh):
            assert np.all(np.diff(pos) > 0)
            assert np.all(mesh.element_fe[pos] == is_fe)
            for p, row in zip(pos, verts):
                assert tuple(row) == mesh.elements[p].vertices
            seen.extend(pos.tolist())
        assert sorted(seen) == list(range(mesh.n_elements))

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 1 << 10])
    @pytest.mark.parametrize("seed", [2, 3])
    def test_windows_cut_blocks_by_position(self, seed, rows):
        # window w holds positions w * rows .. (w + 1) * rows - 1, one block per
        # kind and vertex count; every pass lists the same blocks in order
        with mock.patch.object(meshmod, "_BLOCK_ROWS", rows):
            mesh = random_partition(seed)
            windows = list(mesh.element_windows())
            blocks = window_blocks(mesh)
        assert len(windows) == -(-mesh.n_elements // rows)
        assert [pos.tolist() for _, pos, _ in blocks] == [
            pos.tolist() for window in windows for _, pos, _ in window]
        for w, window in enumerate(windows):
            groups = [(is_fe, verts.shape[1]) for is_fe, _, verts in window]
            assert len(set(groups)) == len(groups)
            positions = np.concatenate([pos for _, pos, _ in window])
            assert sorted(positions.tolist()) == list(
                range(w * rows, min((w + 1) * rows, mesh.n_elements)))

    def test_element_areas_equal_shoelace(self):
        mesh = random_partition(1)
        for k, e in enumerate(mesh.elements):
            assert mesh.element_areas[k] == shoelace_area(element_coords(mesh, e))


class TestPartitionedAssembly:
    @PROPERTY_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000))
    def test_thermal_matches_per_element(self, seed):
        mesh = random_partition(seed)
        system = assemble_thermal(mesh, MATERIALS, BoundaryConditionSet())
        assert rel_diff(system.matrix.toarray(), reference_thermal(mesh)) <= RTOL

    @PROPERTY_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000))
    def test_mechanical_and_stress_match_per_element(self, seed):
        mesh = random_partition(seed)
        rng = np.random.default_rng(seed)
        temperature = rng.uniform(0.0, 120.0, mesh.n_nodes)
        system = assemble_mechanical(mesh, MATERIALS, BoundaryConditionSet(), temperature)
        k_ref, f_ref = reference_mechanical(mesh, temperature)
        assert rel_diff(system.matrix.toarray(), k_ref) <= RTOL
        assert rel_diff(system.rhs, f_ref) <= RTOL

        fields = SolutionFields(temperature=temperature,
                                displacement=rng.normal(scale=1e-3, size=(mesh.n_nodes, 2)))
        stresses = post.recover_stress(mesh, MATERIALS, fields)
        sigma = np.array([s.sigma for s in stresses])
        assert rel_diff(sigma, reference_stress(mesh, fields)) <= RTOL
        # one record per element, by position; an element's kind is element_fe
        assert isinstance(stresses, np.recarray) and len(stresses) == mesh.n_elements
        assert mesh.element_fe.tolist() == [e.kind == FE for e in mesh.elements]


class TestNodalAveraging:
    @staticmethod
    def loop_oracle(mesh, stresses, region=None, element_ids=None):
        """The element-by-element area-weighted average, summed in element order."""
        acc = np.zeros(mesh.n_nodes)
        wsum = np.zeros(mesh.n_nodes)
        for elem, es in zip(mesh.elements, stresses):
            if region is not None and elem.region != region:
                continue
            if element_ids is not None and elem.id not in element_ids:
                continue
            area = polygon_row(element_coords(mesh, elem)).area
            for v in elem.vertices:
                acc[v] += area * es.von_mises
                wsum[v] += area
        with np.errstate(invalid="ignore"):
            return np.where(wsum > 0, acc / np.maximum(wsum, 1e-300), np.nan)

    def test_bit_identical_to_element_loop(self):
        mesh = random_partition(5)
        rng = np.random.default_rng(5)
        stresses = [post.ElementStress(e.id, np.zeros(3), float(v), "x")
                    for e, v in zip(mesh.elements, rng.uniform(0, 300, mesh.n_elements))]
        subset = set(rng.choice(mesh.n_elements, mesh.n_elements // 3, replace=False).tolist())
        for kw in ({}, {"region": 1}, {"element_ids": subset},
                   {"region": 2, "element_ids": subset}):
            got = post.nodal_von_mises(mesh, stresses, **kw)
            assert np.array_equal(got, self.loop_oracle(mesh, stresses, **kw), equal_nan=True)
        with pytest.raises(FevecError, match=r"^element_ids \[\]: they select no element$"):
            post.nodal_von_mises(mesh, stresses, element_ids=set())


def first_violation(mesh):
    """The message every kernel caller raises for a mesh that ``validate_mesh`` rejects."""
    report = validate_mesh(mesh)
    assert report
    return report[0].message


class TestBlockErrors:
    def test_bad_jacobian_names_first_element(self):
        base = generate_structured_quads(4.0, 2.0, 4, 2)
        vertices, kinds, regions = element_table(base)
        for p in (6, 3):
            vertices[p] = vertices[p][::-1]
        mesh = Mesh(base.coords, vertices, kinds, regions, base.boundary_edges)
        expected = first_violation(mesh)
        assert expected.startswith("element 3: non-positive area")
        with pytest.raises(MeshError) as info:
            assemble_thermal(mesh, MATERIALS, BoundaryConditionSet())
        assert str(info.value) == expected

    def test_mixed_kinds_lowest_id_wins(self):
        base = generate_structured_quads(4.0, 2.0, 4, 2)
        vertices, _, regions = element_table(base)
        for p in (5, 2):
            vertices[p] = vertices[p][::-1]
        kinds = [VE if p % 2 else FE for p in range(len(vertices))]
        mesh = Mesh(base.coords, vertices, kinds, regions, base.boundary_edges)
        expected = first_violation(mesh)
        assert expected.startswith("element 2:")
        with pytest.raises(MeshError, match="^element 2: non-positive area"):
            assemble_mechanical(mesh, MATERIALS, BoundaryConditionSet(), None)
        with pytest.raises(MeshError) as info:
            assemble_thermal(mesh, MATERIALS, BoundaryConditionSet())
        assert str(info.value) == expected

    @pytest.mark.parametrize("kinds", ["FE", "VE", "mixed"])
    @pytest.mark.parametrize("first", ["geometry", "material"])
    def test_missing_material_and_bad_element_lowest_id_wins(self, kinds, first):
        # element 2 and element 5 fail, one for an inverted shape and one for a
        # region without material ("mixed" puts the two in different blocks).
        # The inverted element is raised whatever the ids: the mesh is checked
        # before the materials.
        base = generate_structured_quads(4.0, 2.0, 4, 2)
        inverted_id, unknown_id = (2, 5) if first == "geometry" else (5, 2)
        vertices, _, regions = element_table(base)
        element_kinds = [{"FE": FE, "VE": VE}.get(kinds, VE if p % 2 else FE)
                         for p in range(len(vertices))]
        regions[unknown_id] = 9
        good = vertices[inverted_id]
        vertices[inverted_id] = good[::-1]
        mesh = Mesh(base.coords, vertices, element_kinds, regions, base.boundary_edges)
        expected = first_violation(mesh)
        assert expected.startswith(f"element {inverted_id}: non-positive area")
        fields = SolutionFields(temperature=None, displacement=np.zeros((mesh.n_nodes, 2)))
        for run in (lambda: assemble_thermal(mesh, MATERIALS, BoundaryConditionSet()),
                    lambda: assemble_mechanical(mesh, MATERIALS, BoundaryConditionSet(), None),
                    lambda: post.recover_stress(mesh, MATERIALS, fields)):
            with pytest.raises(MeshError) as info:
                run()
            assert str(info.value) == expected
        vertices[inverted_id] = good
        restored = Mesh(base.coords, vertices, element_kinds, regions, base.boundary_edges)
        with pytest.raises(AssemblyError, match=r"^mesh regions without material blocks: \[9\]$"):
            assemble_thermal(restored, MATERIALS, BoundaryConditionSet())

    def test_singular_projection_before_later_degenerate_polygon(self):
        # element 1 is a valid square with a conductivity so small that its
        # projection system underflows to singular; element 4 (same vertex
        # count, later id) is clockwise.  The gate refuses element 4 before
        # any projection runs; without it, the singular system is a SolverError.
        base = generate_structured_quads(3.0, 2.0, 3, 2, kind=VE)
        materials = dict(MATERIALS)
        materials[1] = MaterialProps(E=1.0, nu=0.0, conductivity=5e-324, alpha=0.0, T0=0.0)
        vertices, kinds, regions = element_table(base)
        regions[1] = 1
        with pytest.raises(SolverError, match="^singular thermal projection system$"):
            assemble_thermal(Mesh(base.coords, vertices, kinds, regions, base.boundary_edges),
                             materials, BoundaryConditionSet())
        vertices[4] = vertices[4][::-1]
        mesh = Mesh(base.coords, vertices, kinds, regions, base.boundary_edges)
        with pytest.raises(MeshError) as info:
            assemble_thermal(mesh, materials, BoundaryConditionSet())
        assert str(info.value) == "element 4: non-positive area -1 (clockwise vertex order?)"

    def test_cut_blocks(self):
        # groups are cut into windows of _BLOCK_ROWS elements: results and the
        # refusal of a flawed mesh must not depend on where the cuts fall
        with mock.patch.object(meshmod, "_BLOCK_ROWS", 2):
            mesh = disjoint_polygons(5)
            blocks = window_blocks(mesh)
            assert max(len(pos) for _, pos, _ in blocks) == 2
            assert sorted(np.concatenate([pos for _, pos, _ in blocks])) == list(
                range(mesh.n_elements))
            temperature = np.random.default_rng(5).uniform(0.0, 100.0, mesh.n_nodes)
            thermal = assemble_thermal(mesh, MATERIALS, BoundaryConditionSet())
            assert rel_diff(thermal.matrix.toarray(), reference_thermal(mesh)) <= RTOL
            system = assemble_mechanical(mesh, MATERIALS, BoundaryConditionSet(), temperature)
            k_ref, f_ref = reference_mechanical(mesh, temperature)
            assert rel_diff(system.matrix.toarray(), k_ref) <= RTOL
            assert rel_diff(system.rhs, f_ref) <= RTOL

            for kind, (inverted_id, unknown_id) in itertools.product((FE, VE), ((1, 6), (6, 1))):
                base = generate_structured_quads(4.0, 2.0, 4, 2, kind=kind)
                vertices, kinds, regions = element_table(base)
                regions[unknown_id] = 9
                vertices[inverted_id] = vertices[inverted_id][::-1]
                mesh = Mesh(base.coords, vertices, kinds, regions, base.boundary_edges)
                with pytest.raises(MeshError) as info:
                    assemble_thermal(mesh, MATERIALS, BoundaryConditionSet())
                assert str(info.value) == first_violation(mesh)
                assert str(info.value).startswith(f"element {inverted_id}: ")

    def test_fe_quad_with_three_vertices_is_typed(self):
        nodes = [(0, 0), (1, 0), (1, 1)]
        mesh = Mesh(nodes, [(0, 1, 2)], [FE], [0])
        with pytest.raises(MeshError, match="element 0: FE_QUAD must have 4 vertices"):
            assemble_thermal(mesh, MATERIALS, BoundaryConditionSet())


def test_assembled_matrix_is_canonical_csr():
    mesh = random_partition(2)
    matrix = assemble_thermal(mesh, MATERIALS, BoundaryConditionSet()).matrix
    assert sp.isspmatrix_csr(matrix) and matrix.has_canonical_format
