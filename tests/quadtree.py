"""A graded quadtree mesh of the unit square, for tests.

The square starts as an n0 x n0 grid of cells.  ``depth`` times, every leaf of
the current smallest size whose centre lies within five of its sizes of the
origin corner is split into four; then every leaf with an edge neighbour
less than half its size is split until the tree is 2:1 balanced.
A leaf with a neighbour's corner at the midpoint of one of its sides takes
that node as a vertex: it becomes a VE polygon of 5 to 8 vertices.  Every
other leaf is an FE quad.  Leaves are listed row by row of their lower-left
corners, so FE quads and polygons of each size interleave in the element
table.
"""

import math

import numpy as np

from fevec.mesh import ElementKind, Mesh


def _balanced_leaves(n0: int, depth: int) -> set[tuple[int, int, int]]:
    """Leaves ``(i, j, size)`` on a lattice of n0 * 2**depth steps per side."""
    size = 1 << depth
    leaves = {(i * size, j * size, size) for i in range(n0) for j in range(n0)}

    def split(leaf):
        i, j, s = leaf
        leaves.remove(leaf)
        h = s // 2
        leaves.update({(i, j, h), (i + h, j, h), (i, j + h, h), (i + h, j + h, h)})

    for s in (size >> k for k in range(depth)):
        for leaf in [(i, j, t) for i, j, t in leaves
                     if t == s and math.hypot(i + s / 2, j + s / 2) < 5 * s]:
            split(leaf)
    while True:
        big = [(i, j, s) for i, j, s in leaves if any(
            (a, b, h) in leaves for h in range(1, s // 4 + 1) for a, b in _side_cells(i, j, s, h))]
        if not big:
            return leaves
        for leaf in big:
            split(leaf)


def _side_cells(i: int, j: int, s: int, h: int):
    """Lower-left corners of the cells of size ``h`` along the outside of cell (i, j, s)."""
    for t in range(0, s, h):
        yield from ((i + t, j - h), (i + t, j + s), (i - h, j + t), (i + s, j + t))


def graded_square(n0: int = 8, depth: int = 4) -> Mesh:
    """The balanced quadtree of the unit square, every boundary edge labeled ``boundary``."""
    leaves = sorted(_balanced_leaves(n0, depth), key=lambda leaf: (leaf[1], leaf[0]))
    corners = {(i, j) for i, j, s in leaves} | {(i + s, j + s) for i, j, s in leaves}
    corners |= {(i + s, j) for i, j, s in leaves} | {(i, j + s) for i, j, s in leaves}
    nodes = sorted(corners, key=lambda p: (p[1], p[0]))
    node_of = {p: k for k, p in enumerate(nodes)}
    vertices, kinds = [], []
    for i, j, s in leaves:
        h = s // 2
        ring = [(i, j), (i + h, j), (i + s, j), (i + s, j + h),
                (i + s, j + s), (i + h, j + s), (i, j + s), (i, j + h)]
        polygon = [node_of[p] for k, p in enumerate(ring) if k % 2 == 0 or h and p in node_of]
        vertices.append(polygon)
        kinds.append(ElementKind.FE_QUAD if len(polygon) == 4 else ElementKind.VE_POLY)
    n = n0 << depth
    boundary = {}
    for polygon in vertices:
        for a, b in zip(polygon, polygon[1:] + polygon[:1]):
            (xa, ya), (xb, yb) = nodes[a], nodes[b]
            if (xa == xb and xa in (0, n)) or (ya == yb and ya in (0, n)):
                boundary[a, b] = "boundary"
    return Mesh(np.array(nodes, dtype=float) / n, vertices, kinds, [0] * len(vertices), boundary)
