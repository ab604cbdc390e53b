import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from fevec import vem
from fevec.assembly import DofMap
from fevec.materials import MaterialProps, Plane, gather_materials
from fevec.mesh import ElementKind, Mesh, polygon_stack

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.fixture
def unit_props():
    return MaterialProps(E=1.0, nu=0.0, conductivity=1.0, alpha=1.0, T0=0.0,
                         plane=Plane.STRESS)


@pytest.fixture
def steel_props():
    return MaterialProps(E=200000.0, nu=0.3, conductivity=0.05, alpha=1.2e-5,
                         T0=25.0, plane=Plane.STRESS)


def random_polygon(rng, n_v, scale=1.0, center=(0.0, 0.0), convex=False):
    """Star-shaped polygon with jittered radii; non-convex unless ``convex``.

    Angles keep a minimum separation so no edge degenerates.
    """
    gaps = rng.uniform(0.2, 1.0, n_v)
    angles = 2.0 * np.pi * np.cumsum(gaps) / gaps.sum()
    radii = np.ones(n_v) if convex else rng.uniform(0.45, 1.4, n_v)
    pts = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    return scale * pts + np.asarray(center)


def window_blocks(mesh, dofs_per_node=1):
    """Every block of ``mesh.element_windows(dofs_per_node)``, window by window."""
    return [block for window in mesh.element_windows(dofs_per_node) for block in window]


def element_table(mesh):
    """The element table of ``mesh`` as (vertices, kinds, regions) lists, to edit and rebuild from."""
    elements = mesh.elements
    return [e.vertices for e in elements], [e.kind for e in elements], [e.region for e in elements]


def triangle_system(k, f, dirichlet=None):
    """``SparseSystem`` of a hand-built 3 x 3 matrix on the thermal dof map of one VE triangle,
    the values of ``dirichlet`` (dof -> value) lifted."""
    from kernel_oracles import reduce

    mesh = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [(0, 1, 2)], [ElementKind.VE_POLY], [0])
    return reduce(sp.csr_matrix(np.asarray(k, dtype=float)), f, DofMap("thermal", mesh),
                  dirichlet or {})


def edge_dict(mesh):
    """Sorted node pair -> positions of the elements with a side on it, one per side.

    The element-by-element loop that the mesh's edge arrays replaced; keys
    are in order of first appearance.
    """
    edges = {}
    for pos, e in enumerate(mesh.elements):
        v = e.vertices
        for a, b in zip(v, v[1:] + v[:1]):
            edges.setdefault((min(a, b), max(a, b)), []).append(pos)
    return edges


def polygon_family(seed=42, count=200):
    """Seeded mixed family of convex and non-convex polygons, 3..10 vertices."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n_v = int(rng.integers(3, 11))
        scale = float(rng.uniform(0.2, 8.0))
        center = rng.uniform(-20.0, 20.0, 2)
        out.append(random_polygon(rng, n_v, scale, center, convex=(k % 3 == 0)))
    return out


# One-polygon calls of the stacked VE kernels: each runs the kernel on a
# one-row stack and returns row 0.


def one_material(props):
    """MaterialArrays of a one-element stack of ``props``."""
    return gather_materials({0: props}, np.zeros(1, dtype=np.int64))


def first_row(stack):
    """Row 0 of every array field of a stacked projection or geometry."""
    return SimpleNamespace(**{k: v[0] for k, v in vars(stack).items()
                              if isinstance(v, np.ndarray)})


def polygon_row(coords):
    """Row 0 of ``polygon_stack`` of one polygon."""
    return first_row(polygon_stack(np.asarray(coords, dtype=float)[None]))


def _one_row(projection, coords, props):
    return projection(np.asarray(coords, dtype=float)[None], one_material(props))


def _thermal_one_row(coords, props):
    return vem.thermal_projection(np.asarray(coords, dtype=float)[None],
                                  one_material(props).conductivity)


def thermal_row(coords, props):
    """Row 0 of ``vem.thermal_projection`` of one polygon."""
    return first_row(_thermal_one_row(coords, props))


def elastic_row(coords, props):
    """Row 0 of ``vem.elastic_projection`` of one polygon."""
    return first_row(_one_row(vem.elastic_projection, coords, props))


def thermal_matrix(coords, props):
    """VE thermal stiffness of one polygon."""
    return vem.thermal_element_matrices(_thermal_one_row(coords, props))[0]


def elastic_matrix(coords, props):
    """VE elastic stiffness of one polygon."""
    return vem.elastic_element_matrices(_one_row(vem.elastic_projection, coords, props))[0]


def thermal_load_row(coords, props, nodal_temperature):
    """VE thermal load of one polygon."""
    projection = _one_row(vem.elastic_projection, coords, props)
    return vem.vem_thermal_load(projection, one_material(props),
                                np.asarray(nodal_temperature, dtype=float)[None])[0]


def dof_classes(dof_map):
    """'F', 'I' or 'V' per dof of ``dof_map``: the paper's coupled block structure.

    An interface node is shared by FE and VE elements; any other node is
    FE-interior when an FE element has it as a vertex, VE-interior otherwise.
    """
    mesh = dof_map.mesh
    touches_fe = np.zeros(mesh.n_nodes, dtype=bool)
    for pos, verts in mesh.vertex_groups.values():
        touches_fe[verts[mesh.element_fe[pos]]] = True
    node_class = np.where(touches_fe, "F", "V")
    node_class[sorted(mesh.interface_nodes)] = "I"
    return np.repeat(node_class, dof_map.dofs_per_node)


def scratch_bytes(call, *args, **kwargs):
    """``call(*args, **kwargs)`` and its tracemalloc peak above the bytes traced before it.

    The peak counts everything the call held at its high-water mark, what it
    returns included; numpy reports its buffers to tracemalloc.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
