"""Meshes whose VE cells are merged into larger polygons.

``merge_ve_blocks`` reads a mesh whose cells form a row-major grid, as
``generate_split_square`` and ``generate_quarter_annulus`` build them, and
merges the cells of every all-VE 2 x 2 block.  Blocks alternate between two
patterns: the two cells of each column become one 6-vertex polygon whose
mid-side nodes are collinear (on the straight sides across the rows), or
three cells become a non-convex 8-vertex L and the fourth stays a quad.
Nodes and labels are unchanged, so FE/VE interfaces keep coincident nodes.
"""

from fevec.mesh import ElementKind, Mesh
from conftest import element_table


def union_polygon(cells):
    """Counter-clockwise boundary of the union of counter-clockwise cells.

    The cells must share whole sides and their union must be bounded by one
    simple cycle: a side whose reverse is also present is interior, and the
    others are chained from the smallest node id.
    """
    sides = {(a, b) for cell in cells for a, b in zip(cell, cell[1:] + cell[:1])}
    following = {a: b for a, b in sides if (b, a) not in sides}
    ring = [min(following)]
    while following[ring[-1]] != ring[0]:
        ring.append(following[ring[-1]])
    assert len(ring) == len(following), "the union is not bounded by one cycle"
    return tuple(ring)


def merge_ve_blocks(base: Mesh, n_rows: int, n_cols: int) -> Mesh:
    """``base`` with the cells of each all-VE 2 x 2 block merged; cell (i, j) is element i * n_cols + j.

    A merged polygon takes the place of its first cell in the element list.
    """
    vertices, kinds, regions = element_table(base)
    assert len(vertices) == n_rows * n_cols
    groups = {}     # first cell of a merged polygon -> its cells
    for i in range(0, n_rows - 1, 2):
        for j in range(0, n_cols - 1, 2):
            a, b = i * n_cols + j, i * n_cols + j + 1
            c, d = a + n_cols, b + n_cols
            if any(kinds[k] != ElementKind.VE_POLY for k in (a, b, c, d)):
                continue
            if (i + j) // 2 % 2 == 0:
                groups.update({a: (a, c), b: (b, d)})       # each column: 6 vertices
            else:
                groups[a] = (a, b, c)                       # an L of 8 vertices; d stays
    absorbed = {k for cells in groups.values() for k in cells[1:]}
    keep = [k for k in range(len(vertices)) if k not in absorbed]
    merged = [union_polygon([list(vertices[k]) for k in groups[p]]) if p in groups
              else vertices[p] for p in keep]
    return Mesh(base.coords, merged, [kinds[p] for p in keep], [regions[p] for p in keep],
                base.boundary_edges)
