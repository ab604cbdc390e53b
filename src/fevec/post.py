"""Stress recovery, error norms, line probes and field export.

FE stress is the average of the four Gauss-point stresses; VE stress is the
constant stress of the projected displacement polynomial, from elastic
projections recomputed in one stacked call per block of polygons, each
bounded by ``Mesh.element_windows``, into one record array by element
position (``sigma`` (m, 3), ``von_mises`` (m,)) that every stress reader
takes through ``as_stresses``.  The solved fields pass ``mesh.as_field``.
Nodal stress plots average adjacent element values weighted by element
area, optionally restricted to one region (per-material-side values at
bimaterial interfaces).  Point evaluation loops once over the mesh's
``vertex_groups``, each of one kind.  Line probes find their segment's edge
crossings in one exact array pass per window of edges.  Elements are named
by their position in the mesh's element table.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import fem, vem
from .errors import FevecError
from .materials import MaterialProps, Plane, gather_materials
from .mesh import (_BLOCK_ROWS, Mesh, _run_offsets, as_field, element_lines, index_dtype,
                   require_valid, rowdot, text_windows)
from .solver import SolutionFields

# One record per element: Voigt (xx, yy, xy) stress in MPa and its von Mises value.
STRESS_DTYPE = np.dtype([("sigma", float, (3,)), ("von_mises", float)])


@dataclass(frozen=True)
class ElementStress:
    element_id: int
    sigma: np.ndarray      # (3,) Voigt (xx, yy, xy), MPa
    von_mises: float
    provenance: str


def as_stresses(mesh: Mesh, stresses) -> np.recarray:
    """``stresses`` as ``recover_stress`` returns them: a record array of ``STRESS_DTYPE``
    as it is, a plain structured array of it as a record view, any other sequence of
    items with ``sigma`` and ``von_mises`` converted once.  FevecError unless there is
    one item per element of ``mesh``."""
    if len(stresses) != mesh.n_elements:
        raise FevecError(f"stresses: {len(stresses)} items for {mesh.n_elements} elements")
    if isinstance(stresses, np.ndarray) and stresses.dtype == STRESS_DTYPE and stresses.ndim == 1:
        return stresses if isinstance(stresses, np.recarray) else stresses.view(np.recarray)
    try:
        return np.rec.fromarrays([[s.sigma for s in stresses], [s.von_mises for s in stresses]],
                                 dtype=STRESS_DTYPE)
    except (AttributeError, TypeError, ValueError) as exc:
        raise FevecError(f"stresses: each item needs sigma (3,) and von_mises: {exc}") from None


def _positions(mesh: Mesh, name: str, positions, low: int = 0) -> np.ndarray:
    """``positions`` as int64; FevecError naming ``name`` unless all are integers in
    [low, n_elements)."""
    positions = np.asarray(positions).reshape(-1)
    if positions.size and not (positions.dtype.kind in "iu" and low <= positions.min()
                               and positions.max() < mesh.n_elements):
        raise FevecError(f"{name} must be integers in [{low}, {mesh.n_elements}), "
                         f"got {positions[:8].tolist()}")
    return positions.astype(np.int64)


def _points(points) -> np.ndarray:
    """``points`` as an (n, 2) float array; FevecError naming ``points`` for any other shape."""
    try:
        points = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FevecError(f"points must be (x, y) rows of numbers: {exc}") from None
    if points.ndim != 2 or points.shape[1] != 2:
        raise FevecError(f"points must be (x, y) rows of numbers, got shape {points.shape}")
    return points


def von_mises(sigma: np.ndarray, plane: Plane = Plane.STRESS, nu: float = 0.0) -> float:
    """Equivalent stress; plane strain includes sigma_zz = nu*(sxx + syy)."""
    sxx, syy, sxy = float(sigma[0]), float(sigma[1]), float(sigma[2])
    if plane == Plane.STRESS:
        return math.sqrt(max(sxx * sxx - sxx * syy + syy * syy + 3.0 * sxy * sxy, 0.0))
    szz = nu * (sxx + syy)
    val = 0.5 * ((sxx - syy) ** 2 + (syy - szz) ** 2 + (szz - sxx) ** 2) + 3.0 * sxy * sxy
    return math.sqrt(max(val, 0.0))


def von_mises_batch(sigma: np.ndarray, plane_strain: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """``von_mises`` of (m, 3) Voigt stresses with per-element plane flags and nu.

    Squares go through ``float_power`` (libm ``pow``, as ``** 2`` on a Python
    float), so each value equals the scalar function's.
    """
    sxx, syy, sxy = sigma[:, 0], sigma[:, 1], sigma[:, 2]
    stress = sxx * sxx - sxx * syy + syy * syy + 3.0 * sxy * sxy
    szz = nu * (sxx + syy)
    strain = 0.5 * (np.float_power(sxx - syy, 2) + np.float_power(syy - szz, 2)
                    + np.float_power(szz - sxx, 2)) + 3.0 * sxy * sxy
    return np.sqrt(np.maximum(np.where(plane_strain, strain, stress), 0.0))


def recover_stress(mesh: Mesh, materials: dict[int, MaterialProps],
                   solution: SolutionFields) -> np.recarray:
    require_valid(mesh, materials)
    if solution.displacement is None:
        raise FevecError("stress recovery needs a solved displacement field")
    u = as_field(mesh, "displacement", solution.displacement)
    temps = solution.temperature
    if temps is not None:
        temps = as_field(mesh, "temperature", temps)

    stresses = np.recarray(mesh.n_elements, dtype=STRESS_DTYPE)
    for is_fe, pos, verts in itertools.chain.from_iterable(mesh.element_windows(2)):
        mats = gather_materials(materials, mesh.element_regions[pos])
        coords = mesh.coords[verts]
        ue = u[verts].reshape(len(pos), -1)
        te = None if temps is None else temps[verts]
        if is_fe:
            sigma = fem.stress_q4_batch(fem.q4_batch_eval(coords), mats, ue, te)
        else:
            sigma = vem.projected_stress(vem.elastic_projection(coords, mats), mats, ue, te)
        stresses.sigma[pos] = sigma
        stresses.von_mises[pos] = von_mises_batch(sigma, mats.plane_strain, mats.nu)
    return stresses


def nodal_von_mises(mesh: Mesh, stresses, region: int | None = None,
                    element_ids: set[int] | None = None) -> np.ndarray:
    """Area-weighted nodal average of element von Mises values.

    With ``region`` set, only elements of that region contribute (the
    per-material-side value at interfaces); ``element_ids`` restricts to an
    explicit subset of element positions (per-side values at a coupling
    interface).  An invalid mesh is a MeshError (``require_valid``); a ``region``
    that is not an integer (``bool`` included) or a selection that keeps no
    element is a FevecError.  Nodes with no contributing element hold NaN.

    The sums are products with the transposed ``Mesh.incidence()``, which
    run over the elements in order, so each node adds its elements' terms
    in that order; an element left out adds zero.
    """
    require_valid(mesh, None)
    vm = as_stresses(mesh, stresses).von_mises
    keep = np.ones(mesh.n_elements, dtype=bool)
    if region is not None:
        if not isinstance(region, numbers.Integral) or isinstance(region, bool):
            raise FevecError(f"region must be an integer, got {region!r}")
        keep &= mesh.element_regions == region
        if not keep.any():
            raise FevecError(f"region {region!r}: no element of the mesh has it "
                             f"(regions {sorted(mesh.regions())})")
    if element_ids is not None:
        ids = _positions(mesh, "element_ids", list(element_ids))
        keep &= np.isin(np.arange(mesh.n_elements), ids)
        if not keep.any():
            raise FevecError(f"element_ids {ids[:8].tolist()}: they select no element"
                             + ("" if region is None else f" of region {region!r}"))
    weight = np.where(keep, mesh.element_areas, 0.0)
    to_nodes = mesh.incidence().T
    acc = to_nodes @ np.where(keep, weight * vm, 0.0)
    wsum = to_nodes @ weight
    with np.errstate(invalid="ignore"):
        return np.where(wsum > 0, acc / np.maximum(wsum, 1e-300), np.nan)


def rms_l2_error(numeric: np.ndarray, exact: np.ndarray) -> float:
    """Normalized RMS deviation: sqrt(mean |X - Xe|^2) / max |Xe|."""
    numeric = np.asarray(numeric, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if numeric.shape != exact.shape or numeric.size == 0:
        raise FevecError("sample sets must be non-empty and equal length")
    norm = float(np.abs(exact).max())
    if norm == 0.0:
        raise FevecError("exact field is identically zero; normalization undefined")
    return float(np.sqrt(np.mean((numeric - exact) ** 2))) / norm


# Reference samples below this fraction of the largest one are left out of
# ``mean_relative_error``.
MRE_FLOOR_REL = 1e-8


def mean_relative_error(numeric: np.ndarray, reference: np.ndarray) -> float:
    """Mean of |num - ref| / |ref| over usable samples.

    Samples with |ref| below ``MRE_FLOOR_REL * max|ref|`` are excluded to
    avoid division blowup; raises if nothing survives.
    """
    numeric = np.asarray(numeric, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if numeric.shape != reference.shape or numeric.size == 0:
        raise FevecError("sample sets must be non-empty and equal length")
    usable = np.abs(reference) > MRE_FLOOR_REL * float(np.abs(reference).max())
    if not usable.any():
        raise FevecError("all reference samples below the exclusion floor")
    return float(np.mean(np.abs((numeric[usable] - reference[usable]) / reference[usable])))


# ---------------------------------------------------------------------------
# Point location and field evaluation

NODAL_QUANTITIES = ("temperature", "ux", "uy")
STRESS_QUANTITIES = ("von_mises", "sxx", "syy", "sxy")


class FieldEvaluator:
    """Point evaluation of solved fields over a mesh, for arrays of points.

    A point belongs to the first element of the mesh's element table that
    contains it, boundary included, so points on shared edges go to the
    lower position.  Candidates are the elements whose padded bounding box holds
    the point, read from a uniform bucket grid over the boxes that is built
    once here.  Elements are named by their position in the element table
    and in ``stresses``; ``locate``, ``evaluate`` and ``evaluate_in_element``
    are one-point calls of ``locate_many`` and ``evaluate_at``.
    """

    def __init__(self, mesh: Mesh, materials: dict[int, MaterialProps],
                 solution: SolutionFields, stresses=None):
        require_valid(mesh, materials)
        self.mesh = mesh
        self.solution = solution
        self.stresses = None if stresses is None else as_stresses(mesh, stresses)
        # Element boxes, a block of ``Mesh.element_windows`` at a time.
        lo, hi = np.empty((mesh.n_elements, 2)), np.empty((mesh.n_elements, 2))
        for _, pos, verts in itertools.chain.from_iterable(mesh.element_windows()):
            corners = mesh.coords[verts]
            lo[pos], hi[pos] = corners.min(axis=1), corners.max(axis=1)
        pad = 1e-9 * max(float((hi - lo).max()), 1.0)
        lo -= pad
        hi += pad
        self._lo, self._hi, self._tol = lo, hi, pad

        # Cells of about the mean box size, at most four per element; each
        # bucket lists the boxes that overlap its cell in element order.
        self._origin = lo.min(axis=0)
        extent = hi.max(axis=0) - self._origin
        cells = np.maximum(np.ceil(extent / (hi - lo).mean(axis=0)), 1.0)
        excess = cells.prod() / (4.0 * mesh.n_elements)
        if excess > 1.0:
            cells = np.maximum(np.ceil(cells / math.sqrt(excess)), 1.0)
        self._cells = cells
        self._cell_size = extent / cells
        # One index width for positions, offsets and cells: the bucket entries
        # number at least the elements and the cells.
        first = self._cell_of(lo)
        span = self._cell_of(hi) - first + 1
        count = span[:, 0] * span[:, 1]
        idx = index_dtype(count.sum(), cells.prod())
        pos = np.repeat(np.arange(mesh.n_elements, dtype=idx), count)
        row, col = np.divmod(_run_offsets(count), span[pos, 0])
        cell = first[pos, 1] + row        # then in place: one bucket-sized array at a time
        del row
        cell *= int(cells[0])
        cell += first[pos, 0]
        cell += col
        del col
        self._bucket = pos[np.argsort(cell, kind="stable")]
        del pos
        self._bucket_start = np.zeros(int(cells.prod()) + 1, dtype=idx)
        np.cumsum(np.bincount(cell, minlength=int(cells.prod())), out=self._bucket_start[1:])

    def _cell_of(self, points: np.ndarray) -> np.ndarray:
        """(column, row) of the grid cell of each point, clamped to the grid (NaN to 0)."""
        with np.errstate(invalid="ignore"):
            index = np.floor((points - self._origin) / self._cell_size)
        return np.fmin(np.fmax(index, 0.0), self._cells - 1).astype(index_dtype(self._cells.prod()))

    def _by_group(self, pos: np.ndarray) -> Iterator[tuple[bool, np.ndarray, np.ndarray]]:
        """``(is_fe, indices into pos, (k, n_v) vertex ids)`` of the elements at ``pos``
        in each vertex group that has any, in group order."""
        for (is_fe, _), (group, verts) in self.mesh.vertex_groups.items():
            # searched in the group's own width, so numpy makes no wider copy of it
            at = np.minimum(np.searchsorted(group, pos.astype(group.dtype, copy=False)),
                            group.size - 1)
            sel = np.flatnonzero(group[at] == pos)
            if sel.size:
                yield is_fe, sel, verts[at[sel]]

    def locate_many(self, points) -> np.ndarray:
        """Position of the first element containing each (x, y) row of ``points``, -1 for none."""
        points = _points(points)
        cell = self._cell_of(points) @ np.array([1, int(self._cells[0])])
        start = self._bucket_start[cell]
        count = self._bucket_start[cell + 1] - start
        point = np.repeat(np.arange(len(points)), count)
        pos = self._bucket[np.repeat(start, count) + _run_offsets(count)]
        x, y = points[point, 0], points[point, 1]
        lo, hi = self._lo[pos], self._hi[pos]
        in_box = (lo[:, 0] <= x) & (x <= hi[:, 0]) & (lo[:, 1] <= y) & (y <= hi[:, 1])
        point = point[in_box]
        pos = pos[in_box]
        hit = np.zeros(pos.size, dtype=bool)
        for _, sel, block in self._by_group(pos):
            hit[sel] = _polygons_contain(self.mesh.coords[block], points[point[sel]], self._tol)
        # Candidates run in element order per point: keep each point's first hit.
        found = np.full(len(points), -1, dtype=np.int64)
        hit_points, first = np.unique(point[hit], return_index=True)
        found[hit_points] = pos[hit][first]
        return found

    def locate(self, x: float, y: float) -> int | None:
        """Position of the first element containing (x, y), or None."""
        pos = int(self.locate_many([[x, y]])[0])
        return None if pos < 0 else pos

    def evaluate(self, quantity: str, x: float, y: float) -> float:
        point = np.array([[x, y]], dtype=float)
        return float(self.evaluate_at(quantity, self.locate_many(point), point)[0])

    def evaluate_in_element(self, quantity: str, pos: int, x: float, y: float) -> float:
        return float(self.evaluate_at(quantity, [pos], [[x, y]])[0])

    def evaluate_at(self, quantity: str, positions, points) -> np.ndarray:
        """``quantity`` at each (x, y) row of ``points`` in the element at that position.

        Position -1 gives NaN; one position per point.  Stress quantities are
        the element's constant values; FE fields are interpolated bilinearly at
        the inverse-mapped point, VE fields by the element's projected linear
        polynomial, from one stacked projection of the distinct elements per vertex group.
        """
        positions = _positions(self.mesh, "positions", positions, low=-1)
        points = _points(points)
        if len(points) != positions.size:
            raise FevecError(f"positions: {positions.size} for {len(points)} points")
        values = np.full(positions.size, np.nan)
        rows = np.flatnonzero(positions >= 0)
        if not rows.size:
            return values
        pos = positions[rows]
        if quantity in STRESS_QUANTITIES:
            if self.stresses is None:
                raise FevecError("stress quantities need recovered stresses")
            if quantity == "von_mises":
                values[rows] = self.stresses.von_mises[pos]
            else:
                values[rows] = self.stresses.sigma[pos, ("sxx", "syy", "sxy").index(quantity)]
            return values
        if quantity == "temperature":
            nodal = self.solution.temperature
            if nodal is None:
                raise FevecError("no temperature field solved")
        elif quantity in ("ux", "uy"):
            if self.solution.displacement is None:
                raise FevecError("no displacement field solved")
            nodal = self.solution.displacement[:, 0 if quantity == "ux" else 1]
        else:
            raise FevecError(f"unknown probe quantity '{quantity}'")

        for is_fe, sel, block in self._by_group(pos):
            interpolate = self._interpolate_fe if is_fe else self._interpolate_ve
            values[rows[sel]] = interpolate(pos[sel], self.mesh.coords[block],
                                            nodal[block], points[rows[sel]])
        return values

    def _interpolate_fe(self, pos, coords, nodal, points) -> np.ndarray:
        xi, eta = _inverse_q4_map(coords, points)
        n, _ = fem.q4_shape_batch(coords, xi, eta)
        return rowdot(n, nodal)

    def _interpolate_ve(self, pos, coords, nodal, points) -> np.ndarray:
        # The projection's coefficients do not depend on the conductivity.
        _, first, inverse = np.unique(pos, return_index=True, return_inverse=True)
        projection = vem.thermal_projection(coords[first], np.ones(first.size))
        c = (projection.Pi_star[inverse] @ nodal[..., None])[..., 0]
        centroid = projection.geom.centroid[inverse]
        h = projection.geom.h[inverse]
        return (c[:, 0] + c[:, 1] * (points[:, 0] - centroid[:, 0]) / h
                + c[:, 2] * (points[:, 1] - centroid[:, 1]) / h)


def _polygons_contain(coords: np.ndarray, points: np.ndarray, tol: float) -> np.ndarray:
    """Inclusive point-in-polygon test of each point in its polygon of a (m, n_v, 2) stack.

    A point within ``tol`` of an edge (its foot on the edge, up to 1e-9 in the
    edge parameter) is inside; otherwise an even-odd ray cast toward +x
    decides, so non-convex polygons are handled.
    """
    following = np.roll(coords, -1, axis=1)
    e = following - coords
    to_point = points[:, None, :] - coords
    len2 = np.maximum(rowdot(e, e), 1e-300)
    cross = e[..., 0] * to_point[..., 1] - e[..., 1] * to_point[..., 0]
    t = rowdot(to_point, e) / len2
    on_edge = (cross * cross <= tol * tol * len2) & (-1e-9 <= t) & (t <= 1.0 + 1e-9)
    y = points[:, None, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        x_int = coords[..., 0] + (y - coords[..., 1]) * e[..., 0] / e[..., 1]
    crossings = ((coords[..., 1] > y) != (following[..., 1] > y)) & (x_int > points[:, None, 0])
    return on_edge.any(axis=1) | (crossings.sum(axis=1) % 2 == 1)


_NEWTON_MAX_ITER = 20


def _inverse_q4_map(coords: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local (xi, eta) of each point in its quad of a (m, 4, 2) stack.

    Newton from (0, 0); a row stops once its residual is below 1e-13 x
    max(1, |point|), so each row takes the iterations it would take alone.
    The quads are strictly convex, so J is non-singular along the path.
    """
    xi = np.zeros(len(points))
    eta = np.zeros(len(points))
    tol = 1e-13 * np.fmax(1.0, np.abs(points).max(axis=1))
    active = np.arange(len(points))
    for _ in range(_NEWTON_MAX_ITER):
        n, jac = fem.q4_shape_batch(coords[active], xi[active], eta[active])
        res = (n[:, None, :] @ coords[active])[:, 0] - points[active]
        going = ~(np.abs(res).max(axis=1) < tol[active])
        active, res, jac = active[going], res[going], jac[going]
        if not active.size:
            break
        # jac rows are d(x,y)/d(xi,eta): solve J^T * delta = res
        delta = np.linalg.solve(np.swapaxes(jac, 1, 2), res[..., None])[..., 0]
        xi[active] -= delta[:, 0]
        eta[active] -= delta[:, 1]
    return xi, eta


# ---------------------------------------------------------------------------
# Line probes


@dataclass
class LineProbe:
    name: str
    quantity: str
    p0: tuple[float, float]
    p1: tuple[float, float]
    s: np.ndarray         # (m,) arc-length parameters in [0, 1]
    points: np.ndarray    # (m, 2)
    values: np.ndarray    # (m,) NaN outside the mesh
    inside: np.ndarray    # (m,) bool


def check_probe(p0, p1, quantity: str, n_samples: int) -> None:
    """The one rule for a probe request; FevecError unless ``line_probe`` can sample it."""
    known = NODAL_QUANTITIES + STRESS_QUANTITIES
    if quantity not in known:
        raise FevecError(f"unknown quantity '{quantity}' (known: {', '.join(known)})")
    if not (isinstance(n_samples, numbers.Integral) and n_samples >= 2):
        raise FevecError(f"n_samples must be an integer of at least 2, got {n_samples!r}")
    try:
        ends = np.array([p0, p1], dtype=float)
        finite = ends.shape == (2, 2) and bool(np.isfinite(ends).all())
    except (TypeError, ValueError):
        finite = False
    if not finite:
        raise FevecError(f"end points must be two finite (x, y) points, got {p0!r} and {p1!r}")


def line_probe(evaluator: FieldEvaluator, p0: tuple[float, float], p1: tuple[float, float],
               quantity: str, n_samples: int, name: str = "probe") -> LineProbe:
    """Sample a quantity of ``evaluator``'s fields along a segment.

    Uniform parameter samples are augmented with element-boundary crossings,
    each sampled just before and just after the crossing so interface
    discontinuities in stress stay visible.
    """
    check_probe(p0, p1, quantity, n_samples)
    a = np.asarray(p0, dtype=float)
    b = np.asarray(p1, dtype=float)
    params = set(np.linspace(0.0, 1.0, n_samples).tolist())
    eps = 1e-9
    for s in _edge_crossings(evaluator.mesh, a, b):
        for cand in (s - eps, s, s + eps):
            if 0.0 <= cand <= 1.0:
                params.add(cand)
    svals = np.array(sorted(params))
    points = a[None, :] + svals[:, None] * (b - a)[None, :]
    values = evaluator.evaluate_at(quantity, evaluator.locate_many(points), points)
    inside = np.isfinite(values)
    if not inside.any():
        raise FevecError("probe line lies entirely outside the mesh")
    return LineProbe(name=name, quantity=quantity, p0=tuple(a), p1=tuple(b),
                     s=svals, points=points, values=values, inside=inside)


def _edge_crossings(mesh: Mesh, a: np.ndarray, b: np.ndarray) -> list[float]:
    """Sorted parameters s in [0, 1] at which the segment a-b crosses a mesh edge.

    One exact array pass per window of ``_BLOCK_ROWS`` edges: an edge crosses
    unless it is near-parallel to the segment, and its parameter t on the edge
    must lie in [0, 1] up to 1e-9, s in [0, 1] up to 1e-12.  Each s is
    rounded to 12 decimals (numpy's rounding) and clipped to [0, 1].
    """
    d = b - a
    len2 = float(d @ d)
    if len2 == 0.0:
        return []
    out: set[float] = set()
    for first in range(0, len(mesh.edges), _BLOCK_ROWS):
        edges = mesh.edges[first:first + _BLOCK_ROWS]
        start = mesh.coords[edges[:, 0]]
        ev = mesh.coords[edges[:, 1]] - start
        wv = start - a
        denom = d[0] * ev[:, 1] - d[1] * ev[:, 0]
        parallel = np.abs(denom) < 1e-14 * math.sqrt(len2) * np.maximum(np.hypot(*ev.T), 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            sv = (wv[:, 0] * ev[:, 1] - wv[:, 1] * ev[:, 0]) / denom
            tv = (wv[:, 0] * d[1] - wv[:, 1] * d[0]) / denom
        cross = ~parallel & (-1e-12 <= sv) & (sv <= 1.0 + 1e-12)
        cross &= (-1e-9 <= tv) & (tv <= 1.0 + 1e-9)
        out.update(np.clip(np.round(sv[cross], 12), 0.0, 1.0).tolist())
    return sorted(out)


def write_probe_csv(probe: LineProbe, path: str) -> None:
    """``s,x,y,value`` rows; the value is left empty where it is not finite."""
    finite = np.isfinite(probe.values)
    rows = np.column_stack((probe.s, probe.points, probe.values))
    fmt = np.where(finite, "%.17g,%.17g,%.17g,%.17g\n", "%.17g,%.17g,%.17g,\n")
    keep = np.column_stack((np.ones((len(rows), 3), dtype=bool), finite))
    with open(path, "w") as f:
        f.write("s,x,y,value\n" + "".join(fmt.tolist()) % tuple(rows[keep].tolist()))


# ---------------------------------------------------------------------------
# Field export (legacy ASCII unstructured grid)


def _write_rows(f, line_format: str, values, columns=None) -> None:
    """Write ``line_format`` once per row of ``values`` (of its ``columns``, when given),
    ``%`` the row-major values, a text window of rows at a time."""
    values = np.asarray(values)
    for start, stop in text_windows(len(values)):
        block = values[start:stop] if columns is None else values[start:stop, columns]
        f.write((line_format * len(block)) % tuple(block.ravel().tolist()))


def export_fields(mesh: Mesh, solution: SolutionFields, stresses, path: str) -> None:
    """Write a legacy ASCII unstructured-grid file (version 3.0 header).

    Points carry temperature (scalar) and displacement (vector); cells carry
    von Mises (scalar) and the full stress tensor when ``stresses`` is given.
    The shapes of the fields and stresses are checked before the file opens;
    their values, non-finite ones included, are written as they are.  Every
    point and cell section is formatted and written a text window of rows at
    a time.
    """
    stresses = None if stresses is None else as_stresses(mesh, stresses)
    temperature, displacement = solution.temperature, solution.displacement
    if temperature is not None:
        temperature = as_field(mesh, "temperature", temperature, finite=False)
    if displacement is not None:
        displacement = as_field(mesh, "displacement", displacement, finite=False)
    n, m = mesh.n_nodes, mesh.n_elements
    size = sum(verts.size + len(pos) for pos, verts in mesh.vertex_groups.values())
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\nfevec fields\nASCII\nDATASET UNSTRUCTURED_GRID\n"
                f"POINTS {n} double\n")
        _write_rows(f, "%.17g %.17g 0\n", mesh.coords)
        f.write(f"CELLS {m} {size}\n")
        f.writelines(element_lines(mesh, records=False))
        f.write(f"CELL_TYPES {m}\n")
        f.writelines("7\n" * (stop - start) for start, stop in text_windows(m))
        f.write(f"POINT_DATA {n}\nSCALARS temperature double 1\nLOOKUP_TABLE default\n")
        # a field not solved is written as zeros: "%.17g" % 0.0 is "0"
        if temperature is None:
            f.writelines("0\n" * (stop - start) for start, stop in text_windows(n))
        else:
            _write_rows(f, "%.17g\n", temperature)
        f.write("VECTORS displacement double\n")
        if displacement is None:
            f.writelines("0 0 0\n" * (stop - start) for start, stop in text_windows(n))
        else:
            _write_rows(f, "%.17g %.17g 0\n", displacement)
        if stresses is not None:
            f.write(f"CELL_DATA {m}\nSCALARS von_mises double 1\nLOOKUP_TABLE default\n")
            _write_rows(f, "%.17g\n", stresses.von_mises)
            f.write("TENSORS stress double\n")
            _write_rows(f, "%.17g %.17g 0\n%.17g %.17g 0\n0 0 0\n", stresses.sigma, [0, 2, 2, 1])
