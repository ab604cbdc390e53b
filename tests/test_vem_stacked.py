"""Stacked VE kernels against the per-element oracles, bit for bit.

Every row of a stacked projection, element matrix, thermal load and
projected stress must equal the per-element computation of that polygon in
``kernel_oracles`` exactly, whatever its neighbours in the stack.  A stack
with a singular row raises SolverError; degenerate polygons never reach the
kernels, because ``require_valid`` refuses their mesh first.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle
from fevec import bench, post, vem
from fevec.assembly import BoundaryConditionSet, assemble_mechanical, assemble_thermal
from fevec.errors import MeshError, SolverError
from fevec.materials import MaterialProps, Plane, gather_materials
from fevec.mesh import ElementKind, Mesh, generate_structured_quads
from fevec.solver import SolutionFields
from conftest import UNIT_SQUARE, element_table, polygon_family, random_polygon

VE = ElementKind.VE_POLY
MATERIALS = {
    0: MaterialProps(E=100.0, nu=0.3, conductivity=0.4, alpha=1e-5, T0=25.0),
    1: MaterialProps(E=300.0, nu=0.2, conductivity=0.1, alpha=2e-5, T0=20.0,
                     plane=Plane.STRAIN),
    2: MaterialProps(E=50.0, nu=0.35, conductivity=2.5, alpha=3e-5, T0=22.0),
}
STACK_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
TINY = MaterialProps(E=5e-324, nu=0.0, conductivity=5e-324, alpha=0.0, T0=0.0)


def assert_stack_matches_oracle(stack, regions, rng):
    """Every stacked VE kernel output equals the oracle row by row."""
    m, n_v = stack.shape[:2]
    mats = gather_materials(MATERIALS, regions)
    temps = rng.uniform(-50.0, 150.0, (m, n_v))
    disp = rng.normal(size=(m, 2 * n_v))

    tp = vem.thermal_projection(stack, mats.conductivity)
    kt = vem.thermal_element_matrices(tp, tau=0.3)
    ep = vem.elastic_projection(stack, mats)
    ke = vem.elastic_element_matrices(ep)
    load = vem.vem_thermal_load(ep, mats, temps)
    sigma = vem.projected_stress(ep, mats, disp, temps)
    sigma_iso = vem.projected_stress(ep, mats, disp, None)
    for r in range(m):
        props = MATERIALS[int(regions[r])]
        otp = oracle.thermal_projection(stack[r], props)
        oep = oracle.elastic_projection(stack[r], props)
        pairs = [
            (tp.G_energy[r], otp.G_energy), (tp.D[r], otp.D),
            (tp.Pi_star[r], otp.Pi_star), (tp.Pi[r], otp.Pi),
            (kt[r], oracle.thermal_element_matrices(stack[r], props, tau=0.3, projection=otp)),
            (ep.M_energy[r], oep.M_energy), (ep.D_bar[r], oep.D_bar),
            (ep.Pi_star[r], oep.Pi_star), (ep.Pi[r], oep.Pi),
            (ep.strain_basis[r], oep.strain_basis),
            (ke[r], oracle.elastic_element_matrices(stack[r], props, projection=oep)),
            (load[r], oracle.vem_thermal_load(stack[r], props, temps[r], projection=oep)),
            (sigma[r], oracle.projected_stress(oep, props, disp[r], temps[r])),
            (sigma_iso[r], oracle.projected_stress(oep, props, disp[r], None)),
        ]
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [42, 7])
def test_polygon_family_stacks_match_oracle(seed):
    polys = polygon_family(seed=seed, count=200)
    rng = np.random.default_rng(seed)
    for n_v in range(3, 11):
        stack = np.array([p for p in polys if len(p) == n_v])
        assert len(stack) > 1
        assert_stack_matches_oracle(stack, rng.integers(0, 3, len(stack)), rng)


@st.composite
def polygon_stacks(draw):
    """(m, n_v, 2) stack of random polygons of mixed scale and convexity, with regions."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_v = draw(st.integers(3, 10))
    m = draw(st.integers(1, 12))
    stack = np.array([random_polygon(rng, n_v, scale=10.0 ** rng.uniform(-3, 2),
                                     center=rng.uniform(-50, 50, 2),
                                     convex=bool(rng.random() < 0.5))
                      for _ in range(m)])
    return stack, rng.integers(0, 3, m), rng


@STACK_SETTINGS
@given(polygon_stacks())
def test_random_stacks_match_oracle(drawn):
    stack, regions, rng = drawn
    assert_stack_matches_oracle(stack, regions, rng)


class TestSingularRows:
    @staticmethod
    def stack_with_tiny(rows, m=5):
        materials = {**MATERIALS, 9: TINY}
        regions = np.array([9 if r in rows else 0 for r in range(m)])
        stack = np.array([UNIT_SQUARE + 2.0 * r for r in range(m)])
        return stack, gather_materials(materials, regions)

    @staticmethod
    def tiny_and_clockwise_mesh(tiny_id, clockwise_id):
        """VE grid: element ``tiny_id`` has underflowing moduli, ``clockwise_id`` is clockwise."""
        base = generate_structured_quads(3.0, 2.0, 3, 2, kind=VE)
        vertices, kinds, regions = element_table(base)
        regions[tiny_id] = 9
        vertices[clockwise_id] = vertices[clockwise_id][::-1]
        regions[clockwise_id] = 0
        return Mesh(base.coords, vertices, kinds, regions, base.boundary_edges)

    @pytest.mark.parametrize("field", ["thermal", "elastic"])
    def test_first_singular_row_named(self, field):
        # the error names no row: only moduli that underflow make a valid
        # polygon's projection singular
        stack, mats = self.stack_with_tiny({3, 1})
        projection = getattr(vem, f"{field}_projection")
        with pytest.raises(SolverError, match=f"^singular {field} projection system$"):
            projection(stack, mats.conductivity if field == "thermal" else mats)

    def test_degenerate_row_checked_before_projection(self):
        # the gate runs before any projection: clockwise element 4 is reported
        # although element 1's projection is singular
        mesh = self.tiny_and_clockwise_mesh(1, 4)
        with pytest.raises(MeshError, match="^element 4: non-positive area"):
            assemble_thermal(mesh, {**MATERIALS, 9: TINY}, BoundaryConditionSet())

    def test_lowest_id_wins_through_every_caller(self):
        # element 1 is clockwise and element 4, in the same block, has tiny
        # moduli: every caller reports element 1, from validate_mesh
        mesh = self.tiny_and_clockwise_mesh(4, 1)
        materials = {**MATERIALS, 9: TINY}
        fields = SolutionFields(temperature=np.zeros(mesh.n_nodes),
                                displacement=np.zeros((mesh.n_nodes, 2)))
        for run in (lambda: assemble_thermal(mesh, materials, BoundaryConditionSet()),
                    lambda: assemble_mechanical(mesh, materials, BoundaryConditionSet(),
                                                fields.temperature),
                    lambda: post.recover_stress(mesh, materials, fields),
                    lambda: post.FieldEvaluator(mesh, materials, fields),
                    lambda: bench.check_kernel_invariants(mesh, materials)):
            with pytest.raises(MeshError) as info:
                run()
            assert str(info.value) == "element 1: non-positive area -1 (clockwise vertex order?)"
