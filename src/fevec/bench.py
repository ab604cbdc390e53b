"""Analytic oracles, benchmark case definitions and the convergence harness.

Each built-in case is its shipped ``configs/<name>.cfg``, read on first use,
plus its refinement ladder: its levels, the ``[mesh]`` parameters a level and
a method set, and for a convergence case its error and expected slopes.  Its
``study()`` runs the case and returns its convergence reports and summary
lines.  Five built-in cases at desk scale:

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
                  properties of one solve at the config's ``level`` (pipeline
                  health, stress maxima at material interfaces, interface continuity).

Geometries of the packaging cases are simplified (see the generator
docstrings); their acceptance is qualitative by design.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import config as configmod
from . import mesh as meshmod
from . import post, vem
from .assembly import BoundaryConditionSet, assemble_thermal  # noqa: F401 (public alias)
from .config import RunConfig, parse_config, resolve_bcs
from .errors import FevecError, ParseError, SolverError
from .materials import MaterialProps, gather_materials
from .mesh import ElementKind, Mesh, require_valid
from .solver import SolutionFields, run_pipeline

METHODS = ("coupled", "fe", "ve")

# The shipped run configs, as package data beside this module.
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "configs")


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


def refined_counts(params: Mapping[str, str], level: int, *keys: str) -> dict[str, str]:
    """The ``[mesh]`` counts ``keys`` at ``level``, 2 ** (level - 1) times the config's;
    a missing one is left for ``config.build_mesh`` to report."""
    try:
        return {key: str(int(params[key]) * 2 ** level // 2) for key in keys if key in params}
    except ValueError as exc:
        raise ParseError(f"[mesh] count: {exc}") from None


class BenchmarkCase:
    """One built-in case: its shipped ``configs/<name>.cfg`` and its refinement levels."""

    name: str
    generator: str              # the config's [mesh] generator, which every level calls
    levels: tuple[int, ...]
    fields: str | None = None   # replaces the config's [solver] fields when set

    @functools.cached_property
    def config(self) -> RunConfig:
        """The parsed shipped config (OSError, ParseError), read once per instance."""
        path = os.path.join(CONFIG_DIR, f"{self.name}.cfg")
        cfg = parse_config(meshmod._read_text(path), path)
        if cfg.generator != self.generator:
            raise ParseError(f"[mesh] must name generator '{self.generator}'", path)
        return cfg

    @property
    def materials(self) -> Mapping[int, MaterialProps]:
        """The config's materials by region, read-only."""
        return MappingProxyType(self.config.materials)

    def mesh_overrides(self, level: int, method: str) -> dict[str, str]:
        """The ``[mesh]`` parameters that ``level`` and ``method`` set."""
        return {"level": str(level)}

    def build_mesh(self, level: int, method: str = "coupled") -> Mesh:
        """The config's ``[mesh]`` with the level's and the method's overrides."""
        cfg = self.config
        params = {**cfg.generator_params, **self.mesh_overrides(level, method)}
        return configmod.build_mesh(dataclasses.replace(cfg, generator_params=params))

    def make_bcs(self, mesh: Mesh) -> BoundaryConditionSet:
        """The config's BCs on ``mesh``; an absent label raises AssemblyError."""
        return resolve_bcs(mesh, self.config.bcs)

    def study(self) -> tuple[list[ConvergenceReport], list[str]]:
        """Run the case: its convergence reports and its summary lines."""
        raise NotImplementedError


class ConvergenceCase(BenchmarkCase):
    """A case judged by how its error falls over ``levels``, for every method."""

    # method -> (low, high or None, provenance) bounds on the fitted slope
    expected: Mapping[str, tuple[float, float | None, str]]

    def error(self, mesh, fields, stresses, level: int, method: str) -> float:
        """The error of one solved level; ``run_convergence`` fits its slope."""
        raise NotImplementedError

    def study(self) -> tuple[list[ConvergenceReport], list[str]]:
        reports = [run_convergence(self, method) for method in METHODS]
        return reports, evaluate_expected(self, reports)


class PropertyCase(BenchmarkCase):
    """A packaging cross-section accepted by properties of one coupled solve."""

    @property
    def levels(self) -> tuple[int, ...]:
        """The config's ``[mesh] level``, the one level solved (ParseError unless an integer)."""
        level = self.config.generator_params.get("level")
        try:
            return (int(level),)
        except (TypeError, ValueError):
            raise ParseError(f"{self.name}: [mesh] level must be an integer, "
                             f"got {level!r}") from None

    def study(self) -> tuple[list[ConvergenceReport], list[str]]:
        res = run_property_case(self)
        return [], [f"{res.case}: ndof {res.ndof}, max T {res.max_temperature:.1f} C, "
                    f"max von Mises {res.max_von_mises:.1f} MPa, "
                    f"peak at material interface: {res.peak_element_at_interface}, "
                    f"interface continuity {res.interface_continuity:.2e}, "
                    f"kernel invariants ok: {res.kernel_invariants_ok}"]


# ---------------------------------------------------------------------------
# Cylinder


class CylinderCase(ConvergenceCase):
    name = "cylinder"
    generator = "quarter_annulus"
    levels = (0, 1, 2, 3)
    fields = "thermal"      # the study reads only T; the config's radial_vm probe needs stresses
    expected = MappingProxyType({"coupled": (0.90, None, "reference rate 1.01"),
                                 "fe": (0.85, None, "reference rate 0.92"),
                                 "ve": (0.90, None, "reference rate 1.02")})

    def mesh_overrides(self, level, method):
        """Counts of ``level``; pure FE moves the split radius to ``r_a``, pure VE to ``r_b``."""
        params = self.config.generator_params
        split = params.get({"coupled": "split_radius", "fe": "r_a", "ve": "r_b"}[method])
        return {**refined_counts(params, level, "n_r", "n_t"),
                **({"split_radius": split} if split else {})}

    def error(self, mesh, fields, stresses, level, method) -> float:
        """Nodal temperature RMS against the log-radius exact field of the config's
        radii and its ``inner`` and ``outer`` surface temperatures."""
        cfg = self.config
        surface = {label: spec.values[0] for label, spec in cfg.bcs if spec.kind == "dirichlet_T"}
        if not {"inner", "outer"} <= surface.keys():
            raise ParseError("the cylinder case needs a dirichlet_T on 'inner' and 'outer'")
        radii = np.hypot(mesh.coords[:, 0], mesh.coords[:, 1])
        r_a, r_b = (float(cfg.generator_params[key]) for key in ("r_a", "r_b"))
        exact = cylinder_exact_temperature(radii, r_a, r_b, surface["inner"], surface["outer"])
        return post.rms_l2_error(fields.temperature, exact)


# ---------------------------------------------------------------------------
# Plate with hole


class PlateCase(ConvergenceCase):
    """Ring cells around the hole are split into simplicial VE polygons so
    the VE region has the irregular character of an unstructured mesh; the
    pure-FE variant (and the reference) keep plain quads.  Level -1 builds
    the reference's mesh, that of ``reference_level``."""

    name = "plate"
    generator = "plate_with_hole"
    levels = (0, 1, 2)
    reference_level = 3
    expected = MappingProxyType({"coupled": (0.25, 0.6, "reference rate 0.442")})

    def mesh_overrides(self, level, method):
        level = self.reference_level if level < 0 else level
        kinds = {"coupled": {},
                 "fe": {"ring_kind": "FE", "outer_kind": "FE", "split_ring": "0"},
                 "ve": {"ring_kind": "VE", "outer_kind": "VE", "split_ring": "1"}}[method]
        return {**refined_counts(self.config.generator_params, level,
                                 "n_t", "n_r_ring", "n_r_outer"), **kinds}

    def coupling_circle(self, mesh: Mesh) -> tuple[np.ndarray, set[int]]:
        """The nodes on the circle ``split_radius``, by angle, and the ring elements inside it."""
        split = float(self.config.generator_params["split_radius"])
        x, y = mesh.coords.T
        radii = np.hypot(x, y)
        ids = np.flatnonzero(np.abs(radii - split) <= 1e-9 * split)
        outside = (radii > split * (1 + 1e-9)).astype(np.int64)
        ring = np.flatnonzero(mesh.incidence() @ outside == 0)
        return ids[np.argsort(np.arctan2(y[ids], x[ids]), kind="stable")], set(ring.tolist())

    @functools.cached_property
    def reference(self) -> np.ndarray:
        """Fine pure-FE nodal von Mises on the coupling circle by angle, solved once.

        It averages both sides of the circle (its best available value); the
        methods report the ring-side value, the per-side convention for interface stress.
        """
        mesh, _, stresses, _ = solve_case(self, -1, "fe")
        return post.nodal_von_mises(mesh, stresses)[self.coupling_circle(mesh)[0]]

    def error(self, mesh, fields, stresses, level, method) -> float:
        """Ring-side interface-circle von Mises MRE against ``reference``."""
        ids, ring = self.coupling_circle(mesh)
        step, rest = divmod(self.reference.size - 1, ids.size - 1)
        if rest:
            raise FevecError(f"level {level}'s coupling circle does not nest in the reference's")
        nodal = post.nodal_von_mises(mesh, stresses, element_ids=ring)
        return post.mean_relative_error(nodal[ids], self.reference[::step])


# ---------------------------------------------------------------------------
# Sandwich


class SandwichCase(BenchmarkCase):
    name = generator = "sandwich"
    levels = (0, 1, 2)
    fe_levels = (0, 1, 2, 3)     # the pure-FE ladder of the study; the coupled one is levels

    def build_mesh(self, level: int, method: str = "coupled") -> Mesh:
        """``all_kind`` is no config key, so the sandwich calls its generator itself."""
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

    def study(self) -> tuple[list[ConvergenceReport], list[str]]:
        study = run_sandwich_study(self)
        return [], [
            f"sandwich: substrate-side peaks {['%.1f' % p for p in study.copper_peaks]} MPa, "
            f"interconnect-side {['%.1f' % p for p in study.silver_peaks]} MPa; "
            f"pure-FE interface averages substrate-side "
            f"{['%.2f' % m for m in study.fe_copper_means]} MPa, "
            f"interconnect-side {['%.2f' % m for m in study.fe_silver_means]} MPa, "
            f"FE gate level {study.gate_level}"]


# ---------------------------------------------------------------------------
# FC-BGA and IGBT (property cases)


class FcbgaCase(PropertyCase):
    name = generator = "fcbga"


class IgbtCase(PropertyCase):
    name = generator = "igbt"


def builtin_cases() -> dict[str, BenchmarkCase]:
    """A fresh instance of each built-in case, by name, in ``fevec bench all`` order."""
    return {cls.name: cls() for cls in (PlateCase, CylinderCase, SandwichCase,
                                        FcbgaCase, IgbtCase)}


# ---------------------------------------------------------------------------
# Convergence harness


def solve_case(case: BenchmarkCase, level: int, method: str
               ) -> tuple[Mesh, SolutionFields, np.recarray | None, int]:
    """Run one refinement; returns mesh, fields, stresses and dof count."""
    mesh = case.build_mesh(level, method)
    options = case.config.solver
    if case.fields is not None:
        options = dataclasses.replace(options, fields=case.fields)
    fields = run_pipeline(mesh, case.materials, case.make_bcs(mesh), options)
    if fields.displacement is None:
        return mesh, fields, None, mesh.n_nodes
    return mesh, fields, post.recover_stress(mesh, case.materials, fields), 2 * mesh.n_nodes


def run_convergence(case: ConvergenceCase, method: str) -> ConvergenceReport:
    """Run the case's refinement ladder and fit the slope of ``case.error``."""
    if method not in METHODS:
        raise FevecError(f"unknown method '{method}' (expected one of {METHODS})")
    report = ConvergenceReport(case=case.name, method=method, records=[])
    for level in case.levels:
        try:
            mesh, fields, stresses, ndof = solve_case(case, level, method)
        except SolverError as exc:
            report.aborted = f"level {level}: {exc}"
            break
        err = case.error(mesh, fields, stresses, level, method)
        report.records.append(ConvergenceRecord(level=level, ndof=ndof, error=err))
    return report.finalize()


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


def run_sandwich_study(case: SandwichCase) -> SandwichStudy:
    """Per-side interface peaks for the case's coupled ladder, and its pure-FE
    ladder up to the gate level (finer FE levels are not solved)."""

    def interface(level, method):
        mesh, _, stresses, _ = solve_case(case, level, method)
        ids = case.interface_nodes(mesh)
        sides = interface_side_values(mesh, stresses, ids)
        peaks = [float(np.nanmax(v)) for v in sides]
        means = [interface_average(mesh.coords[ids], v) for v in sides]
        return peaks, means

    coupled = [interface(level, "coupled")[0] for level in case.levels]
    fe_peaks, fe_means = [], []
    gate = None
    for level in case.fe_levels:
        peaks, means = interface(level, "fe")
        converged = bool(fe_means) and all(abs(m - prev) / prev < GATE_REL_CHANGE
                                           for m, prev in zip(means, fe_means[-1]))
        fe_peaks.append(peaks)
        fe_means.append(means)
        if converged:
            gate = level
            break
    return SandwichStudy(coupled_levels=list(case.levels),
                         copper_peaks=[p[0] for p in coupled],
                         silver_peaks=[p[1] for p in coupled],
                         fe_levels=list(case.fe_levels[:len(fe_peaks)]),
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
    incidence = mesh.incidence()
    at = interface[incidence.indices]
    owner = np.repeat(np.arange(mesh.n_elements), np.diff(incidence.indptr))[at]
    np.maximum.at(side, (mesh.element_fe[owner].astype(np.int64), incidence.indices[at]), owner)
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


# Largest entry of Pi D - D that still counts as reproducing the polynomials.
KERNEL_INVARIANT_TOL = 1e-9


def check_kernel_invariants(mesh: Mesh, materials) -> bool:
    """Projection reproduction on every VE element of a generated mesh.

    One stacked projection per block of polygons, after ``require_valid``.
    """
    require_valid(mesh, materials)

    def reproduces(is_fe, pos, verts):
        if is_fe:
            return True
        coords = mesh.coords[verts]
        mats = gather_materials(materials, mesh.element_regions[pos])
        tp = vem.thermal_projection(coords, mats.conductivity)
        ep = vem.elastic_projection(coords, mats)
        return not (np.abs(tp.Pi @ tp.D - tp.D).max() > KERNEL_INVARIANT_TOL
                    or np.abs(ep.Pi @ ep.D_bar - ep.D_bar).max() > KERNEL_INVARIANT_TOL)

    return all(reproduces(*block) for block in mesh.element_blocks())


def run_property_case(case: BenchmarkCase) -> PropertyRunResult:
    """The coupled solve of the case's first level and its property checks."""
    mesh, fields, stresses, ndof = solve_case(case, case.levels[0], "coupled")
    peak = int(np.argmax(stresses.von_mises))
    return PropertyRunResult(
        case=case.name, ndof=ndof, max_temperature=float(fields.temperature.max()),
        max_von_mises=float(stresses.von_mises[peak]),
        peak_element_at_interface=peak in material_interface_elements(mesh),
        interface_continuity=interface_continuity(mesh, case.materials, fields),
        kernel_invariants_ok=check_kernel_invariants(mesh, case.materials))


# ---------------------------------------------------------------------------
# Reports


def evaluate_expected(case: ConvergenceCase,
                      reports: list[ConvergenceReport]) -> list[str]:
    """Check the case's slope expectations against finished reports."""
    slopes = {rep.method: rep.slope for rep in reports if rep.case == case.name}
    lines = []
    for method, (low, high, provenance) in case.expected.items():
        slope = slopes.get(method)
        if slope is None:
            continue
        ok = slope >= low and (high is None or slope <= high)
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        lines.append(f"{case.name} [{method}]: slope {slope:.3f} expected {bound} "
                     f"({provenance}): {'ok' if ok else 'MISS'}")
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
