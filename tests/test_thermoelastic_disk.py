"""The bench cylinder as a thermoelastic thin disk, checked against its closed form.

The cylinder config is a plane-stress annulus r_a <= r <= r_b with prescribed
surface temperatures, free surfaces and symmetry rollers on the two cuts,
at T0 = 0.  Its steady temperature T(r) is the log-radius field, and the
thin-disk solution (Timoshenko & Goodier, *Theory of Elasticity*, 3rd ed.,
1970, ch. 13) with I(r) = int_a^r T rho drho is

    u_r     = (1 + nu) alpha I(r) / r + C1 r + C2 / r
    sigma_r = -alpha E I(r) / r^2 + E / (1 - nu^2) (C1 (1 + nu) - C2 (1 - nu) / r^2)
    sigma_t =  alpha E I(r) / r^2 - alpha E T(r) + E / (1 - nu^2) (C1 (1 + nu) + C2 (1 - nu) / r^2)

where C1 = (1 - nu) alpha I(b) / (b^2 - a^2) and C2 = (1 + nu) alpha a^2 I(b) / (b^2 - a^2)
make sigma_r vanish on both surfaces.  Levels 0-2 of the bench ladder run the
whole pipeline for fe, ve and coupled: ``run_pipeline`` with both fields,
``recover_stress``, ``line_probe`` and ``export_fields``.  Every error falls
by 3.94-4.01 per level as measured (numpy 2.4, scipy 1.17), an h^2 rate;
the slopes are bounded below that.
"""

import math

import numpy as np
import pytest

from fevec import bench, post
from fevec.materials import Plane
from fevec.mesh import polygon_stack
from fevec.solver import SolveOptions, run_pipeline

LEVELS = (0, 1, 2)
METHODS = ("fe", "ve", "coupled")
# Lower bounds on log2 of the error ratio per level (h^2 gives 2; measured 1.97-2.00)
# and upper bounds on the level-2 errors (measured at most 8.3e-5, 3.7e-4 and 1.1e-4).
MIN_SLOPE = 1.9
FINEST = {"u_r": 1e-4, "stress": 5e-4, "probe": 1.5e-4}


class Disk:
    """The closed form on the bench cylinder's radii, surface temperatures and material."""

    def __init__(self, case):
        cfg = case.config
        props = case.materials[0]
        assert set(case.materials) == {0} and props.T0 == 0.0
        assert props.plane == Plane.STRESS
        self.a, self.b = (float(cfg.generator_params[key]) for key in ("r_a", "r_b"))
        surface = {label: spec.values[0] for label, spec in cfg.bcs if spec.kind == "dirichlet_T"}
        self.t_a, self.t_b = surface["inner"], surface["outer"]
        self.E, self.nu, self.alpha = props.E, props.nu, props.alpha
        span = self.b ** 2 - self.a ** 2
        self.c1 = (1 - self.nu) * self.alpha * self.integral(self.b) / span
        self.c2 = (1 + self.nu) * self.alpha * self.a ** 2 * self.integral(self.b) / span

    def temperature(self, r):
        return bench.cylinder_exact_temperature(r, self.a, self.b, self.t_a, self.t_b)

    def integral(self, r):
        """I(r) of T = t_a + slope ln(r / a)."""
        slope = (self.t_b - self.t_a) / math.log(self.b / self.a)
        return (self.t_a * (r * r - self.a ** 2) / 2
                + slope * (r * r * np.log(r / self.a) / 2 - (r * r - self.a ** 2) / 4))

    def u_r(self, r):
        return (1 + self.nu) * self.alpha * self.integral(r) / r + self.c1 * r + self.c2 / r

    def stresses(self, r):
        """(sigma_r, sigma_t) at radii ``r``."""
        thermal = self.alpha * self.E * self.integral(r) / r ** 2
        scale = self.E / (1 - self.nu ** 2)
        uniform, inverse = self.c1 * (1 + self.nu), self.c2 * (1 - self.nu) / r ** 2
        return (-thermal + scale * (uniform - inverse),
                thermal - self.alpha * self.E * self.temperature(r) + scale * (uniform + inverse))


def read_vtk(path, n_nodes, n_elements):
    """Points, displacement and stress tensor (xx, yy, xy) as ``export_fields`` writes them."""
    lines = path.read_text().splitlines()

    def rows(header, count, step=1):
        start = lines.index(header) + 1
        return np.loadtxt(lines[start:start + count * step])

    tensors = rows("TENSORS stress double", n_elements, 3).reshape(n_elements, 3, 3)
    return (rows(f"POINTS {n_nodes} double", n_nodes)[:, :2],
            rows("VECTORS displacement double", n_nodes)[:, :2],
            np.column_stack((tensors[:, 0, 0], tensors[:, 1, 1], tensors[:, 0, 1])))


def errors(case, disk, level, method, tmp_path):
    """Relative errors of one solved level: nodal u_r, centroid stress and the ux probe."""
    mesh = case.build_mesh(level, method)
    fields = run_pipeline(mesh, case.materials, case.make_bcs(mesh),
                          SolveOptions(method="direct", fields="both"))
    stresses = post.recover_stress(mesh, case.materials, fields)

    # every field goes to the file and comes back, bit for bit
    path = tmp_path / f"{method}_{level}.vtk"
    post.export_fields(mesh, fields, stresses, str(path))
    coords, displacement, sigma = read_vtk(path, mesh.n_nodes, mesh.n_elements)
    assert np.array_equal(coords, mesh.coords)
    assert np.array_equal(displacement, fields.displacement)
    assert np.array_equal(sigma, stresses.sigma)

    radius = np.hypot(*coords.T)
    u_r = (displacement * coords).sum(axis=1) / radius
    u_error = post.rms_l2_error(u_r, disk.u_r(radius))

    # centroid stress in polar components, area-weighted relative L2; the exact
    # shear sigma_rt is zero
    centroid, area = np.empty((mesh.n_elements, 2)), np.empty(mesh.n_elements)
    for pos, verts in mesh.vertex_groups.values():
        geometry = polygon_stack(mesh.coords[verts])
        centroid[pos], area[pos] = geometry.centroid, geometry.area
    r = np.hypot(*centroid.T)
    c, s = centroid[:, 0] / r, centroid[:, 1] / r
    xx, yy, xy = sigma.T
    polar = (c * c * xx + s * s * yy + 2 * c * s * xy, s * s * xx + c * c * yy - 2 * c * s * xy,
             (yy - xx) * c * s + (c * c - s * s) * xy)
    exact = (*disk.stresses(r), np.zeros_like(r))
    stress_error = math.sqrt(sum((area * (p - e) ** 2).sum() for p, e in zip(polar, exact))
                             / sum((area * e ** 2).sum() for e in exact))

    # on the theta = 0 cut ux is u_r
    evaluator = post.FieldEvaluator(mesh, case.materials, fields, stresses)
    probe = post.line_probe(evaluator, (disk.a, 0.0), (disk.b, 0.0), "ux", 81)
    assert probe.inside.all()
    scale = np.abs(disk.u_r(np.array([disk.a, disk.b]))).max()
    probe_error = np.abs(probe.values - disk.u_r(probe.points[:, 0])).max() / scale
    return {"u_r": u_error, "stress": stress_error, "probe": probe_error}


@pytest.fixture(scope="module")
def ladder(tmp_path_factory):
    case = bench.builtin_cases()["cylinder"]
    disk = Disk(case)
    tmp_path = tmp_path_factory.mktemp("disk")
    return {method: [errors(case, disk, level, method, tmp_path) for level in LEVELS]
            for method in METHODS}


def test_closed_form_is_free_at_both_surfaces():
    disk = Disk(bench.builtin_cases()["cylinder"])
    sigma_r, _ = disk.stresses(np.array([disk.a, disk.b]))
    assert np.abs(sigma_r).max() <= 1e-12 * disk.alpha * disk.E * disk.t_b


@pytest.mark.parametrize("quantity", sorted(FINEST))
@pytest.mark.parametrize("method", METHODS)
def test_error_falls_at_h_squared(ladder, method, quantity):
    errs = [level[quantity] for level in ladder[method]]
    slopes = [math.log2(coarse / fine) for coarse, fine in zip(errs, errs[1:])]
    assert min(slopes) >= MIN_SLOPE, (errs, slopes)
    assert errs[-1] <= FINEST[quantity], errs
