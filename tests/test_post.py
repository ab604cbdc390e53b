import math
import pathlib

import numpy as np
import pytest

from fevec import config as configmod
from fevec import post
from fevec.assembly import BoundaryConditionSet, assemble_mechanical
from fevec.errors import FevecError, MeshError
from fevec.materials import MaterialProps, Plane
from fevec.mesh import ElementKind, Mesh, generate_split_square, generate_structured_quads
from fevec.solver import SolutionFields, run_pipeline
from conftest import element_table

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def props(**kw):
    base = dict(E=100.0, nu=0.3, conductivity=1.0, alpha=1e-5, T0=25.0,
                plane=Plane.STRESS)
    base.update(kw)
    return MaterialProps(**base)


class TestVonMises:
    def test_pure_shear(self):
        assert post.von_mises(np.array([0, 0, 2.0])) == pytest.approx(2.0 * math.sqrt(3))

    def test_hydrostatic_plane_stress(self):
        assert post.von_mises(np.array([7.0, 7.0, 0.0])) == pytest.approx(7.0)

    def test_zero(self):
        assert post.von_mises(np.zeros(3)) == 0.0

    def test_plane_strain_includes_szz(self):
        nu = 0.3
        vm = post.von_mises(np.array([10.0, 10.0, 0.0]), Plane.STRAIN, nu)
        szz = nu * 20.0
        assert vm == pytest.approx(abs(10.0 - szz))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(12)
        s = rng.normal(size=3)
        base = post.von_mises(s)
        for theta in np.linspace(0, np.pi, 10):
            c, sn = math.cos(theta), math.sin(theta)
            q = np.array([[c, -sn], [sn, c]])
            t = np.array([[s[0], s[2]], [s[2], s[1]]])
            r = q @ t @ q.T
            rotated = np.array([r[0, 0], r[1, 1], r[0, 1]])
            assert post.von_mises(rotated) == pytest.approx(base, rel=1e-10)


class TestErrorNorms:
    def test_rms_identical(self):
        assert post.rms_l2_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_rms_constant_offset(self):
        x = np.array([1.0, 2.0, 4.0])
        assert post.rms_l2_error(x + 0.5, x) == pytest.approx(0.5 / 4.0)

    def test_rms_hand_value(self):
        assert post.rms_l2_error([1.0, 3.0], [1.0, 2.0]) == pytest.approx(
            0.5 * math.sqrt(0.5))
        assert post.rms_l2_error([1.0, 3.0], [1.0, 2.0]) == pytest.approx(0.35355, abs=1e-5)

    def test_rms_zero_reference_rejected(self):
        with pytest.raises(FevecError, match="zero"):
            post.rms_l2_error([1.0], [0.0])

    def test_rms_scale_invariance(self):
        num = np.array([1.0, 2.0, 2.5])
        ref = np.array([1.1, 1.9, 2.6])
        assert post.rms_l2_error(3.0 * num, 3.0 * ref) == pytest.approx(
            post.rms_l2_error(num, ref), rel=1e-12)

    def test_mre_identical_and_uniform(self):
        assert post.mean_relative_error([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert post.mean_relative_error([1.1, 2.2], [1.0, 2.0]) == pytest.approx(0.1)

    def test_mre_hand_value(self):
        assert post.mean_relative_error([1.1, 0.9], [1.0, 1.0]) == pytest.approx(0.1)

    def test_mre_exclusion_floor(self):
        # the second sample, below the floor, would add a relative error of 5e12
        assert post.mean_relative_error([1.1, 5.0], [1.0, 1e-12]) == pytest.approx(0.1)

    def test_mre_all_excluded(self):
        with pytest.raises(FevecError, match="floor"):
            post.mean_relative_error([1.0], [0.0])

    def test_mre_scale_invariance(self):
        num = np.array([1.2, 0.8, 2.0])
        ref = np.array([1.0, 1.0, 2.2])
        assert post.mean_relative_error(5.0 * num, 5.0 * ref) == pytest.approx(
            post.mean_relative_error(num, ref), rel=1e-12)


class TestStressRecovery:
    def test_zero_state(self):
        mesh = generate_split_square(2.0, 1.0, 4, 2)
        mats = {0: props()}
        fields = SolutionFields(temperature=np.full(mesh.n_nodes, 25.0),
                                displacement=np.zeros((mesh.n_nodes, 2)))
        stresses = post.recover_stress(mesh, mats, fields)
        assert max(abs(es.sigma).max() for es in stresses) < 1e-12
        assert set(mesh.element_fe.tolist()) == {True, False}

    def test_constant_stress_patch_fe_and_ve(self):
        # prescribed linear displacement at T0: every element, FE or VE,
        # recovers the same constant stress
        mesh = generate_split_square(2.0, 1.0, 4, 2)
        mats = {0: props()}
        grad = np.array([[1e-3, 2e-4], [-3e-4, 5e-4]])
        u = (grad @ mesh.coords.T).T
        fields = SolutionFields(temperature=None, displacement=u)
        stresses = post.recover_stress(mesh, mats, fields)
        from fevec.materials import elasticity_matrix
        eps = np.array([grad[0, 0], grad[1, 1], grad[0, 1] + grad[1, 0]])
        expected = elasticity_matrix(mats[0]) @ eps
        for es in stresses:
            assert np.abs(es.sigma - expected).max() < 1e-9 * np.abs(expected).max()

    def test_free_expansion_stress_free(self):
        mesh = generate_split_square(2.0, 2.0, 4, 4)
        mats = {0: props()}
        bcs = BoundaryConditionSet()
        boundary = {n for (a, b), lab in mesh.boundary_edges.items() for n in (a, b)}
        for n in sorted(boundary):
            bcs.set_temperature(n, 125.0)
        bcs.set_displacement(0, 0.0, 0.0)
        right_bottom = max(mesh.nodes_with_label("bottom"))
        bcs.set_displacement(right_bottom, None, 0.0)
        fields = run_pipeline(mesh, mats, bcs)
        stresses = post.recover_stress(mesh, mats, fields)
        scale = mats[0].E * mats[0].alpha * 100.0
        assert max(es.von_mises for es in stresses) < 1e-6 * scale


class TestLineProbe:
    def setup_fields(self):
        mesh = generate_split_square(2.0, 1.0, 4, 2)
        mats = {0: props()}
        bcs = BoundaryConditionSet()
        for n in mesh.nodes_with_label("left"):
            bcs.set_temperature(n, 0.0)
            bcs.set_displacement(n, 0.0, 0.0)
        for n in mesh.nodes_with_label("right"):
            bcs.set_temperature(n, 100.0)
        fields = run_pipeline(mesh, mats, bcs)
        stresses = post.recover_stress(mesh, mats, fields)
        return mesh, mats, fields, stresses

    def test_linear_temperature_probe(self):
        mesh, mats, fields, stresses = self.setup_fields()
        probe = post.line_probe(post.FieldEvaluator(mesh, mats, fields, stresses),
                                (0.1, 0.5), (1.9, 0.5), "temperature", 20)
        exact = 50.0 * probe.points[:, 0]
        ok = probe.inside
        assert np.abs(probe.values[ok] - exact[ok]).max() < 1e-9 * 100.0

    def test_constant_field_probe(self):
        mesh = generate_structured_quads(2.0, 1.0, 4, 2)
        mats = {0: props()}
        fields = SolutionFields(temperature=np.full(mesh.n_nodes, 42.0),
                                displacement=np.zeros((mesh.n_nodes, 2)))
        probe = post.line_probe(post.FieldEvaluator(mesh, mats, fields),
                                (0.0, 0.3), (2.0, 0.8), "temperature", 15)
        assert np.abs(probe.values[probe.inside] - 42.0).max() < 1e-10

    def test_interface_continuity(self):
        mesh, mats, fields, stresses = self.setup_fields()
        # probe along the FE/VE interface column x = 1
        probe = post.line_probe(post.FieldEvaluator(mesh, mats, fields, stresses),
                                (1.0, 0.0), (1.0, 1.0), "temperature", 11)
        exact = 50.0
        assert np.abs(probe.values[probe.inside] - exact).max() < 1e-9 * 100.0

    def test_outside_samples_marked(self):
        mesh, mats, fields, stresses = self.setup_fields()
        probe = post.line_probe(post.FieldEvaluator(mesh, mats, fields, stresses),
                                (-1.0, 0.5), (2.0, 0.5), "temperature", 30)
        assert (~probe.inside).any() and probe.inside.any()
        assert np.isnan(probe.values[~probe.inside]).all()

    def test_fully_outside_rejected(self):
        mesh, mats, fields, stresses = self.setup_fields()
        with pytest.raises(FevecError, match="outside"):
            post.line_probe(post.FieldEvaluator(mesh, mats, fields, stresses),
                            (10.0, 10.0), (11.0, 11.0), "temperature", 5)

    @pytest.mark.parametrize("p0, p1, quantity, n_samples, match", [
        ((0.1, 0.5), (1.9, 0.5), "temperature", -7, "n_samples must be an integer of at least 2"),
        ((0.1, 0.5), (1.9, 0.5), "temperature", 1, "n_samples"),
        ((0.1, 0.5), (1.9, 0.5), "temperature", 5.0, "n_samples"),
        ((0.1, 0.5), (1.9, 0.5), "bogus", 5, "unknown quantity 'bogus'"),
        ((0.1, math.nan), (1.9, 0.5), "temperature", 5, "end points"),
        ((0.1, 0.5), (math.inf, 0.5), "temperature", 5, "end points"),
        ((0.1, 0.5, 0.0), (1.9, 0.5), "temperature", 5, "end points"),
        (("a", 0.5), (1.9, 0.5), "temperature", 5, "end points"),
    ])
    def test_bad_request_rejected(self, p0, p1, quantity, n_samples, match):
        evaluator = post.FieldEvaluator(*self.setup_fields())
        with pytest.raises(FevecError, match=match):
            post.line_probe(evaluator, p0, p1, quantity, n_samples)

    def test_locates_points_in_nonconvex_elements(self):
        # L-shaped VE element: the concave notch must not locate
        from fevec.mesh import ElementKind, Mesh
        pts = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
        mesh = Mesh(pts, [tuple(range(6))], [ElementKind.VE_POLY], [0])
        mats = {0: props()}
        fields = SolutionFields(temperature=np.zeros(6), displacement=None)
        ev = post.FieldEvaluator(mesh, mats, fields)
        assert ev.locate(0.5, 0.5) == 0
        assert ev.locate(0.5, 1.5) == 0
        assert ev.locate(1.5, 1.5) is None     # inside the notch
        assert ev.locate(1.0, 1.5) == 0        # on the notch edge

    def test_probe_csv_format(self, tmp_path):
        mesh, mats, fields, stresses = self.setup_fields()
        probe = post.line_probe(post.FieldEvaluator(mesh, mats, fields, stresses),
                                (0.0, 0.5), (2.0, 0.5), "von_mises", 5)
        path = tmp_path / "p.csv"
        post.write_probe_csv(probe, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "s,x,y,value"
        assert len(lines) > 5


class TestExportFields:
    def test_structure_counts(self, tmp_path):
        mesh, mats, fields, stresses = TestLineProbe().setup_fields()
        path = tmp_path / "f.vtk"
        post.export_fields(mesh, fields, stresses, str(path))
        text = path.read_text().splitlines()
        assert text[0] == "# vtk DataFile Version 3.0"
        points_line = next(l for l in text if l.startswith("POINTS"))
        assert int(points_line.split()[1]) == mesh.n_nodes
        cells_line = next(l for l in text if l.startswith("CELLS"))
        assert int(cells_line.split()[1]) == mesh.n_elements
        assert any(l.startswith("SCALARS temperature") for l in text)
        assert any(l.startswith("VECTORS displacement") for l in text)
        assert any(l.startswith("SCALARS von_mises") for l in text)

    def test_golden_file_2x2_patch(self, tmp_path):
        # frozen golden output of the 2x2 structured patch problem
        import pathlib
        golden = pathlib.Path(__file__).parent / "golden" / "fields_2x2.vtk"
        mesh = generate_structured_quads(2.0, 2.0, 2, 2)
        mats = {0: props(E=10.0, nu=0.0, alpha=0.0)}
        bcs = BoundaryConditionSet()
        for n in mesh.nodes_with_label("left"):
            bcs.set_temperature(n, 0.0)
            bcs.set_displacement(n, 0.0, 0.0)
        for n in mesh.nodes_with_label("right"):
            bcs.set_temperature(n, 10.0)
        fields = run_pipeline(mesh, mats, bcs)
        stresses = post.recover_stress(mesh, mats, fields)
        out = tmp_path / "f.vtk"
        post.export_fields(mesh, fields, stresses, str(out))
        assert out.read_bytes() == golden.read_bytes()


def solved_quads():
    """A 4 x 4 quad mesh (16 elements) with a solved field and its recovered stresses."""
    mesh = generate_structured_quads(2.0, 1.0, 4, 4)
    mats = {0: props()}
    fields = SolutionFields(temperature=np.linspace(25.0, 80.0, mesh.n_nodes),
                            displacement=np.random.default_rng(3).normal(
                                scale=1e-3, size=(mesh.n_nodes, 2)))
    return mesh, mats, fields, post.recover_stress(mesh, mats, fields)


class TestStressRecords:
    def test_record_array_iterates_as_its_fields(self):
        mesh, _, _, stresses = solved_quads()
        assert isinstance(stresses, np.recarray) and stresses.dtype == post.STRESS_DTYPE
        assert stresses.sigma.shape == (16, 3) and stresses.von_mises.shape == (16,)
        for k, s in enumerate(stresses):
            assert s.von_mises == stresses.von_mises[k]
            assert np.array_equal(s.sigma, stresses.sigma[k])
        assert post.as_stresses(mesh, stresses) is stresses

    def test_list_of_records_converted(self):
        mesh, _, _, stresses = solved_quads()
        listed = [post.ElementStress(k, s.sigma.copy(), float(s.von_mises), "x")
                  for k, s in enumerate(stresses)]
        table = post.as_stresses(mesh, listed)
        assert isinstance(table, np.recarray)
        assert np.array_equal(table.sigma, stresses.sigma)
        assert np.array_equal(table.von_mises, stresses.von_mises)

    def test_plain_structured_array_accepted(self, tmp_path):
        # once refused: "'numpy.void' object has no attribute 'sigma'"
        mesh, _, fields, stresses = solved_quads()
        plain = np.zeros(mesh.n_elements, post.STRESS_DTYPE)
        plain["sigma"], plain["von_mises"] = stresses.sigma, stresses.von_mises
        table = post.as_stresses(mesh, plain)
        assert isinstance(table, np.recarray) and np.shares_memory(table, plain)
        assert np.array_equal(post.nodal_von_mises(mesh, plain),
                              post.nodal_von_mises(mesh, stresses))
        post.export_fields(mesh, fields, plain, str(tmp_path / "plain.vtk"))
        post.export_fields(mesh, fields, stresses, str(tmp_path / "records.vtk"))
        assert (tmp_path / "plain.vtk").read_bytes() == (tmp_path / "records.vtk").read_bytes()
        with pytest.raises(FevecError, match="stresses: 3 items for 16 elements"):
            post.as_stresses(mesh, plain[:3])

    @pytest.mark.parametrize("item", [object(), post.ElementStress(0, np.zeros(2), 1.0, "x")],
                             ids=["no-fields", "short-sigma"])
    def test_items_without_stress_fields_refused(self, item):
        mesh, _, _, _ = solved_quads()
        with pytest.raises(FevecError, match="each item needs sigma"):
            post.as_stresses(mesh, [item] * mesh.n_elements)

    @pytest.mark.parametrize("form", ["list", "records"])
    def test_wrong_length_refused(self, tmp_path, form):
        mesh, mats, fields, stresses = solved_quads()
        short = (stresses[:3] if form == "records" else
                 [post.ElementStress(k, s.sigma, float(s.von_mises), "x")
                  for k, s in enumerate(stresses[:3])])
        match = "stresses: 3 items for 16 elements"
        path = tmp_path / "f.vtk"
        with pytest.raises(FevecError, match=match):
            post.export_fields(mesh, fields, short, str(path))
        assert not path.exists()
        with pytest.raises(FevecError, match=match):
            post.nodal_von_mises(mesh, short)
        with pytest.raises(FevecError, match=match):
            post.FieldEvaluator(mesh, mats, fields, short)


class TestPositionInputs:
    def evaluator(self):
        mesh, mats, fields, stresses = solved_quads()
        return post.FieldEvaluator(mesh, mats, fields, stresses)

    @pytest.mark.parametrize("quantity", ["temperature", "von_mises"])
    def test_minus_one_is_outside(self, quantity):
        values = self.evaluator().evaluate_at(quantity, [-1, 0], [[9.0, 9.0], [0.1, 0.1]])
        assert np.isnan(values[0]) and np.isfinite(values[1])

    @pytest.mark.parametrize("positions, match", [
        ([16], r"positions must be integers in \[-1, 16\), got \[16\]"),
        ([0, -2], r"got \[0, -2\]"),
        ([0.0], "positions must be integers"),
        ([True], "positions must be integers")],
        ids=["past-the-end", "below-minus-one", "float", "bool"])
    def test_bad_position_refused(self, positions, match):
        points = [[0.1, 0.1]] * len(positions)
        for quantity in ("temperature", "sxx"):
            with pytest.raises(FevecError, match=match):
                self.evaluator().evaluate_at(quantity, positions, points)

    def test_one_position_per_point(self):
        with pytest.raises(FevecError, match="positions: 1 for 2 points"):
            self.evaluator().evaluate_at("temperature", [0], [[0.1, 0.1], [0.2, 0.1]])

    @pytest.mark.parametrize("points", [
        [0.1, 0.2, 0.3], [0.1, 0.2], [[0.1, 0.2, 0.3]], [[[0.1, 0.2]]], [], [["a", "b"]]],
        ids=["odd-count", "flat-pair", "three-columns", "three-axes", "empty-list", "text"])
    def test_points_not_n_by_2_refused(self, points):
        # an odd count once raised a bare ValueError from reshape(-1, 2)
        evaluator = self.evaluator()
        with pytest.raises(FevecError, match=r"points must be \(x, y\) rows of numbers"):
            evaluator.locate_many(points)
        with pytest.raises(FevecError, match=r"points must be \(x, y\) rows of numbers"):
            evaluator.evaluate_at("temperature", [0], points)

    def test_no_points_is_n_by_2(self):
        evaluator = self.evaluator()
        assert evaluator.locate_many(np.empty((0, 2))).shape == (0,)
        assert evaluator.evaluate_at("temperature", [], np.empty((0, 2))).shape == (0,)

    def test_missing_region_refused(self):
        # once an all-NaN average without a word
        mesh, _, _, stresses = solved_quads()
        with pytest.raises(FevecError, match=r"region 7: no element .* \(regions \[0\]\)"):
            post.nodal_von_mises(mesh, stresses, region=7)
        assert np.isfinite(post.nodal_von_mises(mesh, stresses, region=0)).all()

    @pytest.mark.parametrize("region", [False, np.bool_(False), 0.0, "0"],
                             ids=["bool", "numpy-bool", "float", "str"])
    def test_region_not_an_integer_refused(self, region):
        # False once selected region 0 without a word
        mesh, _, _, stresses = solved_quads()
        with pytest.raises(FevecError, match=f"^region must be an integer, got {region!r}$"):
            post.nodal_von_mises(mesh, stresses, region=region)
        assert np.array_equal(post.nodal_von_mises(mesh, stresses, region=np.int64(0)),
                              post.nodal_von_mises(mesh, stresses, region=0))

    @pytest.mark.parametrize("region, ids, message", [
        (None, set(), r"^element_ids \[\]: they select no element$"),
        (0, set(), r"^element_ids \[\]: they select no element of region 0$"),
        (1, {3, 5}, r"^element_ids \[3, 5\]: they select no element of region 1$")],
        ids=["no-ids", "no-ids-in-region", "ids-outside-region"])
    def test_empty_selection_refused(self, region, ids, message):
        # once an all-NaN average without a word
        mesh, _, _, stresses = solved_quads()
        if region == 1:         # elements 3 and 5 stay in region 0
            vertices, kinds, regions = element_table(mesh)
            regions[0] = 1
            mesh = Mesh(mesh.coords, vertices, kinds, regions, mesh.boundary_edges)
        with pytest.raises(FevecError, match=message):
            post.nodal_von_mises(mesh, stresses, region=region, element_ids=ids)

    def test_invalid_mesh_refused(self):
        # a VE element without vertices once raised a bare ZeroDivisionError
        mesh = Mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [()], [ElementKind.VE_POLY], [0])
        with pytest.raises(MeshError, match="^element 0: fewer than 3 vertices$"):
            post.nodal_von_mises(mesh, np.zeros(1, post.STRESS_DTYPE))

    @pytest.mark.parametrize("ids", [{10 ** 9}, {0, -1}, {1.5}],
                             ids=["past-the-end", "negative", "float"])
    def test_bad_element_ids_refused(self, ids):
        mesh, _, _, stresses = solved_quads()
        with pytest.raises(FevecError, match=r"element_ids must be integers in \[0, 16\)"):
            post.nodal_von_mises(mesh, stresses, element_ids=ids)


def plate_problem():
    cfg = configmod.parse_config((CONFIGS / "plate.cfg").read_text(), str(CONFIGS / "plate.cfg"))
    mesh = configmod.build_mesh(cfg, str(CONFIGS))
    return mesh, cfg.materials, configmod.build_bcs(cfg, mesh)


class TestSolvedFields:
    """``mesh.as_field`` is the one gate for a solved field: one row per node, of
    the field's shape, and finite wherever the field feeds a computation."""

    @pytest.mark.parametrize("temperature, match", [
        (np.zeros(3), r"temperature of shape \(3,\), expected \(425,\)"),
        (np.full(425, np.nan), r"temperature of shape \(425,\): non-finite values at nodes "
                               r"\[0, 1, 2, 3, 4, 5, 6, 7\]")],
        ids=["three-values", "all-nan"])
    def test_mechanical_assembly_refuses_bad_temperature(self, temperature, match):
        mesh, mats, bcs = plate_problem()
        with pytest.raises(FevecError, match=match):
            assemble_mechanical(mesh, mats, bcs, temperature)

    def test_recovery_refuses_bad_displacement(self):
        mesh, mats, _ = plate_problem()
        fields = SolutionFields(temperature=None, displacement=np.zeros((3, 2)))
        match = r"displacement of shape \(3, 2\), expected \(425, 2\)"
        with pytest.raises(FevecError, match=match):
            post.recover_stress(mesh, mats, fields)

    def test_export_refuses_bad_temperature(self, tmp_path):
        mesh, _, _ = plate_problem()
        path = tmp_path / "f.vtk"
        fields = SolutionFields(temperature=np.zeros(3), displacement=None)
        with pytest.raises(FevecError, match=r"temperature of shape \(3,\), expected \(425,\)"):
            post.export_fields(mesh, fields, None, str(path))
        assert not path.exists()
