import math

import numpy as np
import pytest

from fevec import post
from fevec.assembly import BoundaryConditionSet
from fevec.errors import FevecError
from fevec.materials import MaterialProps, Plane
from fevec.mesh import ElementKind, generate_split_square, generate_structured_quads
from fevec.solver import SolutionFields, run_pipeline


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
        assert {es.provenance for es in stresses} == {post.PROVENANCE_FE,
                                                      post.PROVENANCE_VE}

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
