"""Analytic oracles, benchmark case definitions and the convergence harness.

Five built-in cases at desk scale:

* ``plate``    -- quarter plate with a circular hole under edge tension;
                  convergence of the interface-circle von Mises MRE against
                  a fine pure-FE reference of the same mesh family.
* ``cylinder`` -- thick-walled cylinder with prescribed inner/outer
                  temperatures; nodal temperature RMS against the log-radius
                  exact field.
* ``sandwich`` -- chip / sintered-interconnect / substrate stack; per-side
                  interface stress peaks of the coupled method, compared with
                  the pure-FE peaks at the first refinement where the pure-FE
                  per-side interface averages change by < 2%.  The peaks
                  themselves sit on a singular clamped corner and do not
                  converge, so they cannot gate the study.
* ``fcbga``, ``igbt`` -- simplified packaging cross-sections accepted by
                  properties (pipeline health, stress maxima at material
                  interfaces, interface continuity).

Geometries of the packaging cases are simplified (see the generator
docstrings); their acceptance is qualitative by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import mesh as meshmod
from . import post, vem
from .assembly import BoundaryConditionSet, assemble_thermal  # noqa: F401 (public alias)
from .config import BcSpec, resolve_bcs
from .errors import FevecError, SolverError
from .materials import MaterialProps, Plane, gather_materials, table_material
from .mesh import ElementKind, Mesh, polygon_stack, require_valid
from .solver import SolutionFields, SolveOptions, run_pipeline

METHODS = ("coupled", "fe", "ve")


def cylinder_exact_temperature(r, r_a: float, r_b: float,
                               t_a: float, t_b: float):
    """Steady radial conduction through an annulus: log interpolation."""
    r = np.asarray(r, dtype=float)
    if np.any(r < r_a * (1 - 1e-12)) or np.any(r > r_b * (1 + 1e-12)):
        raise FevecError(f"radius outside [{r_a}, {r_b}]")
    return t_a + (t_b - t_a) * np.log(r / r_a) / math.log(r_b / r_a)


def fit_slope(ndofs, errors) -> float:
    """Least-squares slope of log(error) against log(ndof), sign-flipped.

    Positive values mean the error decreases under refinement.
    """
    ndofs = np.asarray(ndofs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ndofs.size < 2:
        raise FevecError("need at least two refinements to fit a slope")
    coeffs = np.polyfit(np.log(ndofs), np.log(errors), 1)
    return -float(coeffs[0])


@dataclass(frozen=True)
class ExpectedMetric:
    name: str
    low: float | None
    high: float | None
    provenance: str


@dataclass
class ConvergenceRecord:
    level: int
    ndof: int
    error: float


@dataclass
class ConvergenceReport:
    case: str
    method: str
    records: list[ConvergenceRecord]
    slope: float | None = None
    exact: bool = False     # all errors at round-off: slope meaningless
    aborted: str | None = None   # solver failure message, records are partial

    def finalize(self) -> "ConvergenceReport":
        errs = [r.error for r in self.records]
        if errs and all(e < 1e-9 for e in errs):
            self.exact = True
            self.slope = None
        elif len(errs) >= 2:
            self.slope = fit_slope([r.ndof for r in self.records], errs)
        return self


@dataclass
class BenchmarkCase:
    """One benchmark: geometry family, physics and its error metric."""

    name: str
    description: str
    levels: list[int]
    materials: dict[int, MaterialProps]
    metric: str                      # 'rms_temperature' | 'mre_interface_vm' | 'property'
    thermal_only: bool = False
    expected: list[ExpectedMetric] = field(default_factory=list)
    # (label, BcSpec) pairs in the run-config vocabulary, resolved in order
    bc_specs: ClassVar[tuple[tuple[str, BcSpec], ...]]

    def build_mesh(self, level: int, method: str) -> Mesh:
        raise NotImplementedError

    def make_bcs(self, mesh: Mesh) -> BoundaryConditionSet:
        """The case's BCs on ``mesh``; an absent label raises AssemblyError."""
        return resolve_bcs(mesh, self.bc_specs)


# ---------------------------------------------------------------------------
# Cylinder


CYL_RA, CYL_RB = 20.0, 60.0
CYL_TA, CYL_TB = 0.0, 500.0
CYL_SPLIT = 40.0
CYL_LEVELS = [(15, 30), (30, 60), (60, 120), (120, 240)]


class CylinderCase(BenchmarkCase):
    # symmetry rollers on the cuts so the full pipeline is well posed
    bc_specs = (("inner", BcSpec("dirichlet_T", (CYL_TA,))),
                ("outer", BcSpec("dirichlet_T", (CYL_TB,))),
                ("theta0", BcSpec("dirichlet_u", (None, 0.0))),
                ("theta90", BcSpec("dirichlet_u", (0.0, None))))

    def build_mesh(self, level: int, method: str) -> Mesh:
        n_r, n_t = CYL_LEVELS[level]
        split = {"coupled": CYL_SPLIT, "fe": CYL_RA, "ve": CYL_RB}[method]
        return meshmod.generate_quarter_annulus(CYL_RA, CYL_RB, n_r, n_t, split)


def _cylinder_case() -> CylinderCase:
    return CylinderCase(
        name="cylinder",
        description="thick-walled cylinder, prescribed surface temperatures",
        levels=[0, 1, 2, 3],
        materials={0: table_material(460000.0, 0.3, 20.0, 7.4e-6, 0.0, Plane.STRESS)},
        metric="rms_temperature",
        thermal_only=True,
        expected=[
            ExpectedMetric("slope_coupled", 0.90, None, "reference rate 1.01"),
            ExpectedMetric("slope_fe", 0.85, None, "reference rate 0.92"),
            ExpectedMetric("slope_ve", 0.90, None, "reference rate 1.02"),
        ])


# ---------------------------------------------------------------------------
# Plate with hole


PLATE_HOLE, PLATE_SIZE = 5.0, 20.0
PLATE_SPLIT = 10.0
PLATE_LOAD = 5.0
PLATE_NT = [8, 16, 32]
PLATE_NT_REF = 64


def _plate_params(n_t: int) -> tuple[int, int]:
    return n_t // 2, n_t       # ring cells, outer cells


class PlateCase(BenchmarkCase):
    """Ring cells around the hole are split into simplicial VE polygons so
    the VE region has the irregular character of an unstructured mesh; the
    pure-FE variant (and the reference) keep plain quads."""

    bc_specs = (("bottom", BcSpec("dirichlet_u", (None, 0.0))),
                ("left", BcSpec("dirichlet_u", (0.0, None))),
                ("top", BcSpec("traction", (0.0, PLATE_LOAD))))

    def build_mesh(self, level: int, method: str) -> Mesh:
        n_t = PLATE_NT_REF if level < 0 else PLATE_NT[level]
        n_ring, n_outer = _plate_params(n_t)
        kinds = {
            "coupled": (ElementKind.VE_POLY, ElementKind.FE_QUAD),
            "fe": (ElementKind.FE_QUAD, ElementKind.FE_QUAD),
            "ve": (ElementKind.VE_POLY, ElementKind.VE_POLY),
        }[method]
        return meshmod.generate_plate_with_hole(PLATE_HOLE, PLATE_SIZE, n_t,
                                                n_ring, n_outer, PLATE_SPLIT,
                                                ring_kind=kinds[0], outer_kind=kinds[1],
                                                split_ring=(method != "fe"))

    @staticmethod
    def interface_circle_nodes(mesh: Mesh, n_t: int) -> list[int]:
        """Nodes on the coupling circle, ordered by angle (generator layout)."""
        n_ring, _ = _plate_params(n_t)
        cols = n_t + 1
        return [n_ring * cols + j for j in range(cols)]

    @staticmethod
    def ring_element_ids(n_t: int, split_ring: bool) -> set[int]:
        n_ring, _ = _plate_params(n_t)
        count = n_ring * n_t * (2 if split_ring else 1)
        return set(range(count))


def _plate_case() -> PlateCase:
    return PlateCase(
        name="plate",
        description="quarter plate with hole under edge tension",
        levels=[0, 1, 2],
        materials={0: table_material(10.0, 0.3, 1000.0, 0.0, 25.0, Plane.STRESS)},
        metric="mre_interface_vm",
        expected=[
            ExpectedMetric("slope_coupled", 0.25, 0.6, "reference rate 0.442"),
        ])


# ---------------------------------------------------------------------------
# Sandwich


def _sandwich_materials() -> dict[int, MaterialProps]:
    # Plane stress: the benchmark's target interface peaks correspond to
    # plane-stress von Mises of the constrained interface state, not the
    # plane-strain one.
    return {
        meshmod.SANDWICH_CHIP: table_material(410000.0, 0.14, 370.0, 4.5e-6, 25.0, Plane.STRESS),
        meshmod.SANDWICH_SILVER: table_material(12900.0, 0.38, 278.0, 19.0e-6, 25.0, Plane.STRESS),
        meshmod.SANDWICH_COPPER: table_material(110000.0, 0.38, 400.0, 16.5e-6, 25.0, Plane.STRESS),
    }


class SandwichCase(BenchmarkCase):
    bc_specs = (("top", BcSpec("dirichlet_T", (150.0,))),
                ("bottom", BcSpec("dirichlet_T", (25.0,))),
                ("right", BcSpec("dirichlet_u", (0.0, 0.0))))

    def build_mesh(self, level: int, method: str) -> Mesh:
        all_kind = {"coupled": None, "fe": ElementKind.FE_QUAD,
                    "ve": ElementKind.VE_POLY}[method]
        return meshmod.generate_sandwich(level, all_kind=all_kind)

    @staticmethod
    def interface_nodes(mesh: Mesh) -> list[int]:
        """Nodes on the coupling interface under the stack, ordered by x."""
        x0, x1 = meshmod.SANDWICH_STACK_X
        yi = meshmod.SANDWICH_INTERFACE_Y
        x, y = mesh.coords[:, 0], mesh.coords[:, 1]
        ids = np.flatnonzero((np.abs(y - yi) < 1e-9) & (x0 - 1e-9 <= x) & (x <= x1 + 1e-9))
        return ids[np.argsort(x[ids], kind="stable")].tolist()


def _sandwich_case() -> SandwichCase:
    return SandwichCase(
        name="sandwich",
        description="chip / sintered interconnect / substrate stack",
        levels=[0, 1, 2],
        materials=_sandwich_materials(),
        metric="property")


# ---------------------------------------------------------------------------
# FC-BGA and IGBT (property cases)


def _fcbga_materials() -> dict[int, MaterialProps]:
    return {
        meshmod.FCBGA_MOLD: table_material(24000.0, 0.25, 2.1, 10e-6, 25.0, Plane.STRAIN),
        meshmod.FCBGA_DIE: table_material(165500.0, 0.25, 119.0, 2.8e-6, 25.0, Plane.STRAIN),
        meshmod.FCBGA_BALL: table_material(11000.0, 0.11, 73.0, 35e-6, 25.0, Plane.STRAIN),
        meshmod.FCBGA_EPOXY: table_material(2600.0, 0.3, 0.188, 90e-6, 25.0, Plane.STRAIN),
        meshmod.FCBGA_BT: table_material(26000.0, 0.19, 14.5, 14e-6, 25.0, Plane.STRAIN),
        meshmod.FCBGA_PCB: table_material(22000.0, 0.28, 6.5, 18e-6, 25.0, Plane.STRAIN),
    }


class FcbgaCase(BenchmarkCase):
    bc_specs = (("mold_top", BcSpec("dirichlet_T", (50.0,))),
                ("pcb_bottom", BcSpec("dirichlet_T", (50.0,))),
                ("die", BcSpec("dirichlet_T", (500.0,))),
                ("pcb_bottom", BcSpec("dirichlet_u", (0.0, 0.0))))

    def build_mesh(self, level: int, method: str = "coupled") -> Mesh:
        return meshmod.generate_fcbga(level)


class IgbtCase(BenchmarkCase):
    # 1000 mW/mm^2 of heating = 1 W/mm^2 inward (negative outward flux)
    bc_specs = (("base_bottom", BcSpec("dirichlet_T", (25.0,))),
                ("base_bottom", BcSpec("dirichlet_u", (0.0, 0.0))),
                ("chip_top", BcSpec("flux", (-1.0,))))

    def build_mesh(self, level: int, method: str = "coupled") -> Mesh:
        return meshmod.generate_igbt(level)


def _igbt_materials() -> dict[int, MaterialProps]:
    return {
        meshmod.IGBT_CHIP: table_material(112000.0, 0.22, 148.0, 2.5e-6, 25.0, Plane.STRAIN),
        meshmod.IGBT_CU: table_material(100000.0, 0.34, 400.0, 16.4e-6, 25.0, Plane.STRAIN),
        meshmod.IGBT_CERAMIC: table_material(300000.0, 0.22, 20.0, 6.4e-6, 25.0, Plane.STRAIN),
        meshmod.IGBT_AL: table_material(70600.0, 0.33, 237.0, 21.0e-6, 25.0, Plane.STRAIN),
        meshmod.IGBT_SOLDER: table_material(10600.0, 0.35, 57.0, 22.4e-6, 25.0, Plane.STRAIN),
    }


def _fcbga_case() -> FcbgaCase:
    return FcbgaCase(name="fcbga",
                     description="simplified flip-chip BGA cross-section",
                     levels=[2], materials=_fcbga_materials(), metric="property")


def _igbt_case() -> IgbtCase:
    return IgbtCase(name="igbt",
                    description="simplified IGBT module cross-section",
                    levels=[1], materials=_igbt_materials(), metric="property")


def builtin_cases() -> dict[str, BenchmarkCase]:
    return {c.name: c for c in (_plate_case(), _cylinder_case(), _sandwich_case(),
                                _fcbga_case(), _igbt_case())}


# ---------------------------------------------------------------------------
# Convergence harness


def solve_case(case: BenchmarkCase, level: int, method: str,
               options: SolveOptions | None = None
               ) -> tuple[Mesh, SolutionFields, list[post.ElementStress] | None, int]:
    """Run one refinement; returns mesh, fields, stresses and dof count."""
    mesh = case.build_mesh(level, method)
    fields = run_pipeline(mesh, case.materials, case.make_bcs(mesh), options,
                          mechanical=not case.thermal_only)
    if fields.displacement is None:
        return mesh, fields, None, mesh.n_nodes
    return mesh, fields, post.recover_stress(mesh, case.materials, fields), 2 * mesh.n_nodes


def run_convergence(case: BenchmarkCase, method: str,
                    options: SolveOptions | None = None) -> ConvergenceReport:
    """Run the case's refinement ladder and fit the error slope."""
    if method not in METHODS:
        raise FevecError(f"unknown method '{method}' (expected one of {METHODS})")
    report = ConvergenceReport(case=case.name, method=method, records=[])
    reference = None
    if case.metric == "mre_interface_vm":
        reference = _plate_reference(case, options)
    for level in case.levels:
        try:
            mesh, fields, stresses, ndof = solve_case(case, level, method, options)
        except SolverError as exc:
            report.aborted = f"level {level}: {exc}"
            break
        if case.metric == "rms_temperature":
            radii = np.hypot(mesh.coords[:, 0], mesh.coords[:, 1])
            exact = cylinder_exact_temperature(radii, CYL_RA, CYL_RB, CYL_TA, CYL_TB)
            err = post.rms_l2_error(fields.temperature, exact)
        elif case.metric == "mre_interface_vm":
            err = _plate_interface_mre(case, mesh, stresses, level, method, reference)
        else:
            raise FevecError(f"case '{case.name}' has no convergence metric")
        report.records.append(ConvergenceRecord(level=level, ndof=ndof, error=err))
    return report.finalize()


def _plate_reference(case: "PlateCase", options):
    """Fine pure-FE solve; nodal von Mises on the coupling circle by angle index.

    The reference averages both sides of the circle (its best available
    value); the measured methods report the ring-side value, matching the
    per-side convention for interface stress.
    """
    mesh, fields, stresses, _ = solve_case(case, -1, "fe", options)
    nodal = post.nodal_von_mises(mesh, stresses)
    ids = PlateCase.interface_circle_nodes(mesh, PLATE_NT_REF)
    return nodal[ids]     # (PLATE_NT_REF + 1,) ordered by angle


def _plate_interface_mre(case, mesh, stresses, level, method, reference):
    n_t = PLATE_NT[level]
    ids = PlateCase.interface_circle_nodes(mesh, n_t)
    ring = PlateCase.ring_element_ids(n_t, split_ring=(method != "fe"))
    nodal = post.nodal_von_mises(mesh, stresses, element_ids=ring)[ids]
    stride = PLATE_NT_REF // n_t
    ref = reference[::stride]
    return post.mean_relative_error(nodal, ref)


# ---------------------------------------------------------------------------
# Sandwich interface study


GATE_REL_CHANGE = 0.02


@dataclass
class SandwichStudy:
    coupled_levels: list[int]
    copper_peaks: list[float]            # coupled method, per level
    silver_peaks: list[float]
    fe_levels: list[int]
    fe_copper_peaks: list[float]
    fe_silver_peaks: list[float]
    fe_copper_means: list[float]         # pure-FE interface averages, per level
    fe_silver_means: list[float]
    # first FE level at which both per-side interface averages change by less
    # than GATE_REL_CHANGE from the previous level; the peaks cannot serve,
    # they sit on the singular clamped corner and grow under refinement
    gate_level: int | None

    def peaks_at_gate(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Per-side peaks at the gate level: ((coupled substrate, coupled
        interconnect), (pure-FE substrate, pure-FE interconnect))."""
        level = self.gate_level
        if level is None:
            raise FevecError("pure-FE interface averages did not converge below "
                             f"{GATE_REL_CHANGE:.0%} change")
        if level not in self.coupled_levels or level not in self.fe_levels:
            raise FevecError(f"gate level {level} not solved by both methods "
                             f"(coupled {self.coupled_levels}, fe {self.fe_levels})")
        i = self.coupled_levels.index(level)
        j = self.fe_levels.index(level)
        return ((self.copper_peaks[i], self.silver_peaks[i]),
                (self.fe_copper_peaks[j], self.fe_silver_peaks[j]))


def interface_side_values(mesh: Mesh, stresses, ids) -> tuple[np.ndarray, np.ndarray]:
    """(substrate-side, interconnect-side) nodal von Mises at the nodes ``ids``."""
    copper = post.nodal_von_mises(mesh, stresses, region=meshmod.SANDWICH_COPPER)
    silver = post.nodal_von_mises(mesh, stresses, region=meshmod.SANDWICH_SILVER)
    return copper[ids], silver[ids]


def interface_side_peaks(mesh: Mesh, stresses, ids) -> tuple[float, float]:
    """(substrate-side, interconnect-side) peak nodal von Mises on the interface."""
    copper, silver = interface_side_values(mesh, stresses, ids)
    return float(np.nanmax(copper)), float(np.nanmax(silver))


def interface_average(points, values) -> float:
    """Length-weighted trapezoidal mean of nodal ``values`` along the polyline
    through ``points`` (one row per node, in order).

    At the sandwich interface the corner singularity is integrable, so this
    mean has a mesh-independent limit where the peak has none.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2 or points.shape != (values.size, 2):
        raise FevecError("need at least two nodes with one (x, y) row per value")
    lengths = np.hypot(*np.diff(points, axis=0).T)
    total = float(lengths.sum())
    if not total > 0.0:
        raise FevecError("interface polyline has zero length")
    return float(np.dot(0.5 * (values[1:] + values[:-1]), lengths)) / total


def run_sandwich_study(case: "SandwichCase | None" = None,
                       coupled_levels=(0, 1, 2), fe_levels=(0, 1, 2, 3),
                       options: SolveOptions | None = None) -> SandwichStudy:
    """Per-side interface peaks for the coupled ladder, and the pure-FE ladder
    up to the gate level (finer FE levels are not solved)."""
    case = case or _sandwich_case()

    def interface(level, method):
        mesh, _, stresses, _ = solve_case(case, level, method, options)
        ids = SandwichCase.interface_nodes(mesh)
        sides = interface_side_values(mesh, stresses, ids)
        peaks = [float(np.nanmax(v)) for v in sides]
        means = [interface_average(mesh.coords[ids], v) for v in sides]
        return peaks, means

    coupled = [interface(level, "coupled")[0] for level in coupled_levels]
    fe_peaks, fe_means = [], []
    gate = None
    for level in fe_levels:
        peaks, means = interface(level, "fe")
        converged = bool(fe_means) and all(abs(m - prev) / prev < GATE_REL_CHANGE
                                           for m, prev in zip(means, fe_means[-1]))
        fe_peaks.append(peaks)
        fe_means.append(means)
        if converged:
            gate = level
            break
    return SandwichStudy(coupled_levels=list(coupled_levels),
                         copper_peaks=[p[0] for p in coupled],
                         silver_peaks=[p[1] for p in coupled],
                         fe_levels=list(fe_levels)[:len(fe_peaks)],
                         fe_copper_peaks=[p[0] for p in fe_peaks],
                         fe_silver_peaks=[p[1] for p in fe_peaks],
                         fe_copper_means=[m[0] for m in fe_means],
                         fe_silver_means=[m[1] for m in fe_means],
                         gate_level=gate)


# ---------------------------------------------------------------------------
# Property runs (FC-BGA, IGBT)


@dataclass
class PropertyRunResult:
    case: str
    ndof: int
    max_temperature: float
    max_von_mises: float
    peak_element_at_interface: bool
    interface_continuity: float          # max relative field mismatch at interface
    kernel_invariants_ok: bool


def material_interface_elements(mesh: Mesh) -> set[int]:
    """Elements with at least one edge shared with a different region."""
    owners, start = mesh.edge_owners()
    two = start[mesh.edge_counts == 2]
    first, second = owners[two], owners[two + 1]
    differ = mesh.element_regions[first] != mesh.element_regions[second]
    return set(np.concatenate((first[differ], second[differ])).tolist())


def interface_continuity(mesh: Mesh, materials, fields: SolutionFields) -> float:
    """Worst FE-side vs VE-side point-evaluation mismatch at interface nodes.

    Checks temperature and both displacement components (whichever are
    solved), each normalized by its field range.  A node's side of each kind
    is the last element of that kind in the element list that has it as a
    vertex."""
    if not mesh.interface_nodes:
        return 0.0
    interface = np.zeros(mesh.n_nodes, dtype=bool)
    interface[list(mesh.interface_nodes)] = True
    side = np.full((2, mesh.n_nodes), -1, dtype=np.int64)     # rows: VE, FE
    for pos, verts in mesh.vertex_groups.values():
        at = interface[verts]
        nodes = verts[at]
        owner = np.broadcast_to(pos[:, None], verts.shape)[at]
        np.maximum.at(side, (mesh.element_fe[owner].astype(np.int64), nodes), owner)
    both = np.flatnonzero((side >= 0).all(axis=0))
    points = mesh.coords[both]
    evaluator = post.FieldEvaluator(mesh, materials, fields)

    quantities = []
    if fields.temperature is not None:
        span = float(fields.temperature.max() - fields.temperature.min()) or 1.0
        quantities.append(("temperature", span))
    if fields.displacement is not None:
        span = float(np.abs(fields.displacement).max()) or 1.0
        quantities.extend((q, span) for q in ("ux", "uy"))

    worst = 0.0
    for quantity, span in quantities:
        ve, fe = (evaluator.evaluate_at(quantity, side[k, both], points) for k in (0, 1))
        worst = float(np.fmax.reduce(np.abs(fe - ve) / span, initial=worst))
    return worst


def check_kernel_invariants(mesh: Mesh, materials, tol: float = 1e-9) -> bool:
    """Projection reproduction on every VE element of a generated mesh.

    One stacked projection per block of polygons, after ``require_valid``.
    """
    require_valid(mesh, materials)

    def reproduces(is_fe, pos, verts):
        if is_fe:
            return True
        coords = mesh.coords[verts]
        mats = gather_materials(materials, mesh.element_regions[pos])
        geom = polygon_stack(coords)
        tp = vem.thermal_projection(coords, mats, geom)
        ep = vem.elastic_projection(coords, mats, geom)
        return not (np.abs(tp.Pi @ tp.D - tp.D).max() > tol
                    or np.abs(ep.Pi @ ep.D_bar - ep.D_bar).max() > tol)

    return all(reproduces(*block) for block in mesh.element_blocks())


def run_property_case(case: BenchmarkCase, level: int | None = None,
                      options: SolveOptions | None = None) -> PropertyRunResult:
    level = case.levels[0] if level is None else level
    mesh, fields, stresses, ndof = solve_case(case, level, "coupled", options)
    peak_elem = max(stresses, key=lambda es: es.von_mises).element_id
    at_interface = peak_elem in material_interface_elements(mesh)
    continuity = interface_continuity(mesh, case.materials, fields)
    invariants = check_kernel_invariants(mesh, case.materials)
    return PropertyRunResult(
        case=case.name, ndof=ndof,
        max_temperature=float(fields.temperature.max()),
        max_von_mises=max(es.von_mises for es in stresses),
        peak_element_at_interface=at_interface,
        interface_continuity=continuity,
        kernel_invariants_ok=invariants)


# ---------------------------------------------------------------------------
# Reports


def evaluate_expected(case: BenchmarkCase,
                      reports: list[ConvergenceReport]) -> list[str]:
    """Check the case's slope expectations against finished reports."""
    slopes = {rep.method: rep.slope for rep in reports if rep.case == case.name}
    lines = []
    for metric in case.expected:
        if not metric.name.startswith("slope_"):
            continue
        method = metric.name.removeprefix("slope_")
        slope = slopes.get(method)
        if slope is None:
            continue
        ok = (metric.low is None or slope >= metric.low) and \
             (metric.high is None or slope <= metric.high)
        bound = f">= {metric.low}" if metric.high is None else \
                f"in [{metric.low}, {metric.high}]"
        lines.append(f"{case.name} [{method}]: slope {slope:.3f} expected {bound} "
                     f"({metric.provenance}): {'ok' if ok else 'MISS'}")
    return lines


def write_report_csv(reports: list[ConvergenceReport], path: str) -> None:
    lines = ["case,method,ndof,error"]
    for rep in reports:
        for rec in rep.records:
            lines.append(f"{rep.case},{rep.method},{rec.ndof},{rec.error:.12e}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def summarize(reports: list[ConvergenceReport],
              extra_lines: list[str] | None = None) -> str:
    lines = []
    for rep in reports:
        if rep.aborted:
            lines.append(f"{rep.case} [{rep.method}]: ABORTED after "
                         f"{len(rep.records)} refinement(s): {rep.aborted}")
        elif rep.exact:
            lines.append(f"{rep.case} [{rep.method}]: exact to round-off at every refinement")
        else:
            slope = "n/a" if rep.slope is None else f"{rep.slope:.3f}"
            lines.append(f"{rep.case} [{rep.method}]: fitted slope {slope} "
                         f"over {len(rep.records)} refinements "
                         f"(error {rep.records[0].error:.3e} -> {rep.records[-1].error:.3e})")
    if extra_lines:
        lines.extend(extra_lines)
    return "\n".join(lines) + "\n"
