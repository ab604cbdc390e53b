"""Assembly straight into the solve's blocks against the full-then-slice oracle, bit for bit.

``assembly._scatter`` sums element matrices one window of
``Mesh.element_windows`` at a time, with ``np.add.at``, straight into the
free x free and free x prescribed blocks laid out on ``Mesh.node_pattern``;
``kernel_oracles.scatter`` runs the kernels on whole groups,
``kernel_oracles.compress`` stably sorts the element triplets and converts
COO to the whole natural-order CSR matrix, and ``kernel_oracles.slice_system``
cuts the blocks out of it by rows, then by columns.  Every block, right-hand
side, lift and solution must be equal array for array, sign bits of zeros
included, in natural and in elimination order, wherever the window cuts
fall.  The assembly drops the coupling block once lifted, so the tests
record what ``_scatter`` returns.
"""

import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_oracles
import test_patch
from fevec import assembly, bench, post, vem
from fevec import mesh as meshmod
from fevec import config as configmod
from fevec.assembly import BoundaryConditionSet, DofMap
from fevec.materials import MaterialProps, Plane
from fevec.mesh import ElementKind, Mesh, generate_fcbga, generate_sandwich, generate_split_square
from fevec.solver import SolutionFields, SolveOptions, run_pipeline
from conftest import polygon_family, window_blocks
from merged_polygons import merge_ve_blocks
from quadtree import graded_square

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
FE = ElementKind.FE_QUAD
VE = ElementKind.VE_POLY


def props():
    return MaterialProps(E=200.0, nu=0.3, conductivity=2.0, alpha=1e-3, T0=20.0,
                         plane=Plane.STRESS)


def assert_same_matrix(actual, expected):
    assert actual.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        assert getattr(actual, name).dtype == getattr(expected, name).dtype, name
        assert np.array_equal(getattr(actual, name), getattr(expected, name)), name
    assert np.array_equal(np.signbit(actual.data), np.signbit(expected.data))
    assert actual.has_canonical_format == expected.has_canonical_format


def assert_same_vector(actual, expected):
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def temperature_field(mesh):
    x, y = mesh.coords.T
    return 20.0 + 40.0 * np.sin(0.7 * x + 0.1) * np.cos(0.3 * y)


def recording(scatter, calls):
    """``scatter`` that appends its ``rhs`` argument and its two blocks to ``calls``."""
    def record(mesh, dof_map, kernels, rhs, free, fixed):
        matrix, coupling = scatter(mesh, dof_map, kernels, rhs, free, fixed)
        calls.append((rhs, matrix, coupling))
        return matrix, coupling
    return record


def assert_matches_oracle(mesh, materials, bcs, monkeypatch):
    """K_T, K_u, their coupling blocks, right-hand sides and lifts equal to the oracle's.

    In natural order (CG's) and in elimination order (the direct solve's).
    """
    temperature = temperature_field(mesh)

    def both(order, scatter):
        calls = []
        with monkeypatch.context() as m:
            m.setattr(assembly, "_scatter", recording(scatter, calls))
            systems = (assembly.assemble_thermal(mesh, materials, bcs, elimination_order=order),
                       assembly.assemble_mechanical(mesh, materials, bcs, temperature,
                                                    elimination_order=order))
        return zip(systems, calls, strict=True)

    for order in (False, True):
        actual, expected = both(order, assembly._scatter), both(order, kernel_oracles.scatter)
        for (a, (a_load, a_matrix, a_coupling)), (e, (e_load, _, e_coupling)) in zip(
                actual, expected, strict=True):
            assert a.matrix is a_matrix
            # in elimination order both keep each row's natural column order
            assert_same_matrix(a.matrix, e.matrix)
            assert_same_matrix(a_coupling, e_coupling)
            assert a_coupling.shape == (a.free.size, a.fixed.size)
            assert order or a.matrix.has_canonical_format
            # the load as assembled, edge loads included, then the lifted right-hand side
            assert_same_vector(a_load[a.free], e_load[e.free])
            assert np.array_equal(a.free, e.free)
            assert_same_vector(a.rhs, e.rhs)
            # symmetric bit for bit, so the direct solve may factor the transpose
            assert (a.matrix != a.matrix.T).nnz == 0
            if not a.fixed.size and not order:
                assert a.matrix.shape == (a.dof_map.ndof,) * 2


def assert_solutions_match_oracle(mesh, materials, bcs, monkeypatch, method="direct"):
    """Both fields of ``run_pipeline`` equal, bit for bit, to the ones of the oracle's blocks."""
    options = SolveOptions(method=method)
    actual = run_pipeline(mesh, materials, bcs, options)
    with monkeypatch.context() as m:
        m.setattr(assembly, "_scatter", kernel_oracles.scatter)
        expected = run_pipeline(mesh, materials, bcs, options)
    for name in ("temperature", "displacement"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert (a is None) == (e is None), name
        if a is not None:
            assert_same_vector(a, e)


def config_problem(name):
    cfg = configmod.parse_config((CONFIGS / f"{name}.cfg").read_text(),
                                 str(CONFIGS / f"{name}.cfg"))
    mesh = configmod.build_mesh(cfg, str(CONFIGS))
    return mesh, cfg.materials, configmod.build_bcs(cfg, mesh)


def case_problem(name, mesh):
    case = bench.builtin_cases()[name]
    return mesh, case.materials, case.make_bcs(mesh)


PROBLEMS = {
    **{name: (lambda name=name: config_problem(name))
       for name in ("plate", "sandwich", "fcbga", "igbt", "cylinder")},
    "sandwich_fe_l1": lambda: case_problem("sandwich", generate_sandwich(1, FE)),
    "fcbga_l1": lambda: case_problem("fcbga", generate_fcbga(1)),
    "sandwich_fe_l3": lambda: case_problem("sandwich", generate_sandwich(3, FE)),
    "fcbga_l2": lambda: case_problem("fcbga", generate_fcbga(2)),
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_problems_match_oracle(name, monkeypatch):
    assert_matches_oracle(*PROBLEMS[name](), monkeypatch)


@pytest.mark.parametrize("name", ["plate", "sandwich", "fcbga", "igbt", "cylinder",
                                  "sandwich_fe_l3", "fcbga_l2"])
def test_direct_solutions_match_oracle(name, monkeypatch):
    assert_solutions_match_oracle(*PROBLEMS[name](), monkeypatch)


@pytest.mark.parametrize("name", ["plate", "fcbga", "cylinder"])
def test_cg_solutions_match_oracle(name, monkeypatch):
    assert_solutions_match_oracle(*PROBLEMS[name](), monkeypatch, method="cg")


@settings(max_examples=20, deadline=None, derandomize=True)
@given(test_patch.partitions())
def test_partitions_match_oracle(mesh):
    bcs = BoundaryConditionSet()
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_oracle(mesh, {0: props()}, bcs, monkeypatch)


def hub_polygons(seed, count=60, group=4):
    """VE polygons of 3-10 vertices from ``polygon_family``, in groups of ``group``
    consecutive polygons translated so their first vertices meet in one shared node.

    Neighbours in element order mostly differ in vertex count, so every hub
    entry sums ``group`` terms from several element blocks.
    """
    coords, vertices = [], []
    n = 0
    for k, poly in enumerate(polygon_family(seed=seed, count=count)):
        if k % group == 0:
            hub, hub_xy = n, poly[0]
            coords.append(poly)
            vertices.append(tuple(range(n, n + len(poly))))
            n += len(poly)
        else:
            coords.append(poly[1:] - poly[0] + hub_xy)
            vertices.append((hub,) + tuple(range(n, n + len(poly) - 1)))
            n += len(poly) - 1
    return Mesh(np.concatenate(coords), vertices, [VE] * len(vertices), [0] * len(vertices))


def hub_bcs(mesh):
    """Every polygon held: temperature and displacement at each hub, the displacement
    of each polygon's next vertex, and only ux at the one after in the hub's first
    polygon, so that nodes mix free and prescribed dofs.  A polygon meets its
    group only at the hub, so each one needs its own support."""
    bcs = BoundaryConditionSet()
    for k, element in enumerate(mesh.elements):
        hub, second, third = element.vertices[:3]
        bcs.set_displacement(second, 0.01 * k, -0.02)
        if k % 4 == 0:
            bcs.set_temperature(hub, 2.5 * k - 5.0)
            bcs.set_displacement(hub, 0.0, 0.0)
            bcs.set_displacement(third, 0.03, None)
    return bcs


@pytest.mark.parametrize("seed", [3, 4])
def test_hub_polygons_with_prescribed_dofs_match_oracle(seed, monkeypatch):
    mesh = hub_polygons(seed)
    materials, bcs = {0: props()}, hub_bcs(mesh)
    assert_matches_oracle(mesh, materials, bcs, monkeypatch)
    for method in ("direct", "cg"):
        assert_solutions_match_oracle(mesh, materials, bcs, monkeypatch, method)


@pytest.mark.parametrize("seed", [3, 4])
def test_hub_polygons_match_oracle(seed, monkeypatch):
    mesh = hub_polygons(seed)
    blocks = window_blocks(mesh)
    assert len(blocks) == 8
    owner_blocks = np.zeros(mesh.n_nodes, dtype=np.int64)
    for _, _, verts in blocks:
        owner_blocks[np.unique(verts)] += 1
    assert owner_blocks.max() >= 3
    assert_matches_oracle(mesh, {0: props()}, BoundaryConditionSet(), monkeypatch)


WINDOW_PROBLEMS = {
    "hub_polygons": lambda: (hub_polygons(3), {0: props()}, hub_bcs(hub_polygons(3))),
    "fcbga_l0": lambda: case_problem("fcbga", generate_fcbga(0)),   # FE and VE
}


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
@pytest.mark.parametrize("name", sorted(WINDOW_PROBLEMS))
def test_windows_match_oracle(name, rows, monkeypatch):
    # the oracle runs whole groups in one piece: where the windows cut them
    # must change no bit of any block or right-hand side
    mesh, materials, bcs = WINDOW_PROBLEMS[name]()
    monkeypatch.setattr(meshmod, "_BLOCK_ROWS", rows)
    assert len(list(mesh.element_windows())) == -(-mesh.n_elements // rows)
    assert_matches_oracle(mesh, materials, bcs, monkeypatch)


def merged_square_problem():
    """``merge_ve_blocks`` of a 24 x 24 split square: 4-, 6- and 8-vertex VE stacks, held
    at the boundary in both fields."""
    mesh = merge_ve_blocks(generate_split_square(1.0, 1.0, 24, 24), 24, 24)
    assert {(False, 4), (False, 6), (False, 8)} <= mesh.vertex_groups.keys()
    bcs = BoundaryConditionSet()
    for label in sorted(mesh.labels()):
        for v in mesh.nodes_with_label(label):
            x, y = mesh.coords[v]
            bcs.set_temperature(v, 20.0 + x * y)
            bcs.set_displacement(v, 1e-3 * x, -2e-3 * y)
    return mesh, {0: props()}, bcs


BOUND_PROBLEMS = {"fcbga_l1": lambda: case_problem("fcbga", generate_fcbga(1)),
                  "merged_square": merged_square_problem}


@pytest.mark.parametrize("entries", [1, 3 * 8 * 8], ids=["one-row", "three-elastic-quads"])
@pytest.mark.parametrize("name", sorted(BOUND_PROBLEMS))
def test_ve_stack_bound_changes_no_bit(name, entries, monkeypatch):
    # stacked rows are independent: where Mesh.element_windows cuts a VE block must
    # change no bit of either system or of the recovered stresses
    mesh, materials, bcs = BOUND_PROBLEMS[name]()
    temperature = temperature_field(mesh)
    fields = SolutionFields(temperature=temperature,
                            displacement=1e-3 * np.sin(mesh.coords[:, ::-1] + 0.3))
    calls = []      # (stack rows, dofs per element) of each projection call

    def outputs():
        return (assembly.assemble_thermal(mesh, materials, bcs, elimination_order=True),
                assembly.assemble_mechanical(mesh, materials, bcs, temperature),
                post.recover_stress(mesh, materials, fields))

    expected = outputs()
    for kernel_name, per in (("thermal_projection", 1), ("elastic_projection", 2)):
        def spy(coords, *args, kernel=getattr(vem, kernel_name), per=per):
            calls.append((len(coords), per * coords.shape[1]))
            return kernel(coords, *args)
        monkeypatch.setattr(vem, kernel_name, spy)
    monkeypatch.setattr(meshmod, "STACK_ENTRIES", entries)
    actual = outputs()
    assert calls and all(m <= max(entries // (n * n), 1) for m, n in calls)
    assert entries > 1 or {m for m, _ in calls} == {1}
    for a, e in zip(actual[:2], expected[:2]):
        assert_same_matrix(a.matrix, e.matrix)
        assert_same_vector(a.rhs, e.rhs)
    assert_same_vector(actual[2].sigma, expected[2].sigma)
    assert_same_vector(actual[2].von_mises, expected[2].von_mises)


def ve_rank_stacks(mesh, per):
    """The VE positions of each vertex group in each ``_BLOCK_ROWS`` window, cut in rank
    order into stacks of ``STACK_ENTRIES // (p n_v)^2`` polygons: the stacks of the mesh
    when no group's cut falls inside another group's stack."""
    stacks = set()
    for (_, n_v), (group, _) in mesh.vertex_groups.items():
        ve = group[~mesh.element_fe[group]]
        rows = max(meshmod.STACK_ENTRIES // (per * n_v) ** 2, 1)
        for w in np.unique(ve // meshmod._BLOCK_ROWS):
            in_w = ve[ve // meshmod._BLOCK_ROWS == w]
            stacks.update(tuple(in_w[k:k + rows].tolist()) for k in range(0, in_w.size, rows))
    return stacks


@pytest.mark.parametrize("entries", [None, 3 * 8 * 8], ids=["default", "three-elastic-quads"])
@pytest.mark.parametrize("per", [1, 2])
@pytest.mark.parametrize("name", sorted(BOUND_PROBLEMS))
def test_windows_bound_ve_stacks(name, per, entries, monkeypatch):
    mesh = BOUND_PROBLEMS[name]()[0]
    if entries is not None:
        monkeypatch.setattr(meshmod, "STACK_ENTRIES", entries)
    windows = list(mesh.element_windows(per))
    # the windows cover every position once, in order, each a run of positions
    runs = [np.sort(np.concatenate([pos for _, pos, _ in window])) for window in windows]
    assert np.array_equal(np.concatenate(runs), np.arange(mesh.n_elements))
    assert all(run.size <= meshmod._BLOCK_ROWS for run in runs)
    ve_quad_windows = []
    for window in windows:
        for is_fe, pos, verts in window:
            group, group_verts = mesh.vertex_groups[is_fe, verts.shape[1]]
            assert np.all(mesh.element_fe[pos] == is_fe)
            assert np.array_equal(verts, group_verts[np.searchsorted(group, pos)])
            size = len(pos) * (per * verts.shape[1]) ** 2
            if not is_fe:       # no VE block passes the bound
                assert len(pos) == 1 or size <= meshmod.STACK_ENTRIES
            assert np.shares_memory(pos, group) and np.shares_memory(verts, group_verts)
        if all(not is_fe and verts.shape[1] == 4 for is_fe, _, verts in window):
            assert len(window) == 1
            ve_quad_windows.append(len(window[0][1]))
    if entries is None:     # each VE stack holds what the rank cut gives it
        assert {tuple(pos.tolist()) for window in windows for is_fe, pos, _ in window
                if not is_fe} == ve_rank_stacks(mesh, per)
    if name == "fcbga_l1" and per == 2 and entries is None:
        assert ve_quad_windows == [256, 256, 128]


@pytest.mark.parametrize("build", [lambda: generate_fcbga(1), lambda: merged_square_problem()[0],
                                   graded_square], ids=["fcbga_l1", "merged_square", "quadtree"])
def test_vertex_groups_are_kernel_stacks(build):
    # one group per (kind, vertex count), n_v ascending and FE first; every
    # window block is a view of its group
    mesh = build()
    n_v = np.bincount(mesh.side_element, minlength=mesh.n_elements)
    keys = list(mesh.vertex_groups)
    assert keys == sorted(keys, key=lambda key: (key[1], not key[0]))
    covered = np.zeros(mesh.n_elements, dtype=np.int64)
    for (is_fe, count), (pos, verts) in mesh.vertex_groups.items():
        assert np.array_equal(pos, np.flatnonzero((mesh.element_fe == is_fe) & (n_v == count)))
        assert verts.shape == (pos.size, count)
        covered[pos] += 1
    assert (covered == 1).all()
    for per in (1, 2):
        for is_fe, pos, verts in window_blocks(mesh, per):
            group, group_verts = mesh.vertex_groups[is_fe, verts.shape[1]]
            assert np.shares_memory(pos, group) and np.shares_memory(verts, group_verts)


@st.composite
def element_parts(draw):
    """Parts ``(positions, (m, k) values)`` as ``Mesh._group_rows`` gives them: each
    position of 0..n-1 in at most one part, increasing in it; widths 1-16, any
    part possibly empty, 0-5 parts."""
    n = draw(st.integers(0, 80))
    widths = draw(st.lists(st.integers(1, 16), max_size=5))
    owner = np.array(draw(st.lists(st.integers(-1, len(widths) - 1), min_size=n, max_size=n)),
                     dtype=np.int64)
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for k, width in enumerate(widths):
        pos = np.flatnonzero(owner == k).astype(dtype)
        parts.append((pos, rng.standard_normal((pos.size, width))))
    return n, parts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(element_parts())
@example((0, []))
@example((5, [(np.arange(0), np.empty((0, 3), dtype=np.int32))]))
@example((5, [(np.arange(2, 5), np.arange(6).reshape(3, 2))]))
def test_in_element_order_matches_oracle(case):
    n, parts = case
    merged = meshmod._in_element_order(parts)
    expected = kernel_oracles.in_element_order(n, parts)
    assert merged.dtype == expected.dtype and np.array_equal(merged, expected)


def test_node_slots_point_at_their_pairs():
    mesh = hub_polygons(3)
    indptr, indices = mesh.node_pattern
    for _, _, verts in window_blocks(mesh):
        rows = np.repeat(verts, verts.shape[1], axis=1).ravel()
        cols = np.tile(verts, (1, verts.shape[1])).ravel()
        slots = mesh.node_slots(rows, cols)
        assert np.array_equal(np.searchsorted(indptr, slots, side="right") - 1, rows)
        assert np.array_equal(indices[slots], cols)


@pytest.mark.parametrize("build", [lambda: hub_polygons(4), lambda: generate_fcbga(1),
                                   lambda: generate_sandwich(1, FE)])
def test_node_pattern_matches_sorted_pairs(build):
    mesh = build()
    expected = kernel_oracles.node_pattern(mesh)
    for actual, oracle in zip(mesh.node_pattern, expected, strict=True):
        assert actual.dtype == oracle.dtype and np.array_equal(actual, oracle)


def signed_zero_blocks(mesh, per, rng):
    """Random element matrices, per vertex-count block, with signed zeros placed at
    node pairs of the square (0, 1, 2, 3) and the triangle (1, 4, 2)."""
    blocks = []
    for _, pos, verts in sorted(window_blocks(mesh), key=lambda block: block[2].shape[1]):
        n = per * verts.shape[1]
        blocks.append((pos, verts, rng.uniform(-1.0, 1.0, (len(pos), n, n))))
    (_, tri, ke_tri), (_, quad, ke_quad) = blocks
    assert tri.tolist() == [[1, 4, 2]] and quad.tolist() == [[0, 1, 2, 3]]
    local = {"tri": {1: 0, 4: 1, 2: 2}, "quad": {0: 0, 1: 1, 2: 2, 3: 3}}

    def put(ke, where, a, b, value):
        for i in range(per):
            ke[0, per * local[where][a] + i, per * local[where][b] + i] = value

    put(ke_quad, "quad", 0, 2, -0.0)   # only term: -0.0
    put(ke_quad, "quad", 1, 2, -0.0)   # shared edge: -0.0 then -0.0
    put(ke_tri, "tri", 1, 2, -0.0)
    put(ke_quad, "quad", 2, 1, -0.0)   # -0.0 then +0.0
    put(ke_tri, "tri", 2, 1, 0.0)
    put(ke_quad, "quad", 1, 1, 0.0)    # +0.0 then -0.0
    put(ke_tri, "tri", 1, 1, -0.0)
    return blocks


@pytest.mark.parametrize("rows", [None, 1])
@pytest.mark.parametrize("field_kind", ["thermal", "mechanical"])
def test_signed_zeros_match_oracle(field_kind, rows, monkeypatch):
    if rows is not None:
        monkeypatch.setattr(meshmod, "_BLOCK_ROWS", rows)
    mesh = Mesh([(0, 0), (1, 0), (1, 1), (0, 1), (2, 0.5)], [(0, 1, 2, 3), (1, 4, 2)],
                [FE, VE], [0, 0])
    dof_map = DofMap(field_kind, mesh)
    per = dof_map.dofs_per_node
    blocks = signed_zero_blocks(mesh, per, np.random.default_rng(0))
    # each block's matrices, and minus their first columns as its loads
    by_first = {int(pos[0]): (ke, -ke[:, 0]) for pos, _, ke in blocks}
    rhs, expected_rhs = np.zeros(dof_map.ndof), np.zeros(dof_map.ndof)
    free, fixed = np.arange(dof_map.ndof), np.arange(0)
    actual, coupling = assembly._scatter(
        mesh, dof_map, lambda _, pos, __: by_first[int(pos[0])], rhs, free, fixed)
    expected, expected_coupling = kernel_oracles.scatter(
        mesh, dof_map, lambda _, pos, __: by_first[int(pos[0])], expected_rhs, free, fixed)
    assert_same_matrix(actual, expected)
    assert_same_matrix(coupling, expected_coupling)
    assert_same_vector(rhs, expected_rhs)
    for (a, b), negative in {(0, 2): True, (1, 2): True, (2, 1): False, (1, 1): False}.items():
        for i in range(per):
            row, col = per * a + i, per * b + i
            start = actual.indptr[row]
            value = actual.data[start + np.searchsorted(actual.indices[start:actual.indptr[row + 1]],
                                                        col)]
            assert value == 0.0 and np.signbit(value) == negative
