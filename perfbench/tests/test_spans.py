"""Self-time arithmetic and the reach of the function wrappers."""

import numpy as np
import pytest

from perfbench import spans


def test_self_time_subtracts_union_of_children():
    #   0: root [0, 10]
    #   1:   a [1, 4]      (2: a's child [2, 3])
    #   3:   b [3, 6]      overlaps a; the overlap counts once
    #   4:   c [8, 12]     clipped to the root's end
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_self_times_of_nested_calls_add_up_to_the_outer_span():
    tracer = spans.Tracer("test")
    inner = tracer.wrap("t.inner", lambda: sum(range(2000)))

    def body():
        inner()
        inner()
        return sum(range(5000))

    outer = tracer.wrap("t.outer", body)
    outer()
    outer()
    assert tracer.span_names() == ["t.outer", "t.inner", "t.inner"] * 2
    assert list(tracer.parent) == [-1, 0, 0, -1, 3, 3]
    selfs = spans.self_times(tracer.start, tracer.end, tracer.parent)
    for root in (0, 3):
        kids = [i for i, p in enumerate(tracer.parent) if p == root]
        total = selfs[root] + sum(selfs[k] for k in kids)
        assert total == pytest.approx(tracer.end[root] - tracer.start[root], abs=1e-12)
        assert all(selfs[k] > 0 for k in kids)


def _bindings(modules):
    """Every (namespace, key, value) reachable as a module attribute or module-level dict item."""
    for mod in modules:
        for attr, value in vars(mod).items():
            if attr.startswith("__"):
                continue
            yield mod.__name__, attr, value
            if isinstance(value, dict):
                for key, item in value.items():
                    for v in (item if isinstance(item, tuple) else (item,)):
                        yield f"{mod.__name__}.{attr}", key, v


def test_wrapper_reaches_every_alias_and_restores_them():
    import fevec
    from fevec import assembly, bench, config, post, solver

    originals = spans.layer_functions()
    original_ids = {id(f) for f in originals.values()}
    modules = spans.fevec_modules()
    before = list(_bindings(modules))
    assert ("fevec.bench", "assemble_thermal", originals["assembly.assemble_thermal"]) in before

    tracer = spans.Tracer("alias")
    with spans.traced(tracer):
        leftovers = [(ns, key) for ns, key, v in _bindings(modules) if id(v) in original_ids]
        assert leftovers == []
        wrapped = assembly.assemble_thermal
        assert wrapped.__wrapped__ is originals["assembly.assemble_thermal"]
        assert fevec.assemble_thermal is wrapped
        assert solver.assemble_thermal is wrapped
        assert bench.assemble_thermal is wrapped
        fn, _ = config.GENERATORS["quarter_annulus"]
        assert fn.__wrapped__ is originals["mesh.generate_quarter_annulus"]
        assert hasattr(post.FieldEvaluator.locate, "__wrapped__")
        assert hasattr(solver.spla.splu, "__wrapped__")

        case = bench.builtin_cases()["cylinder"]
        bench.solve_case(case, 0, "coupled")           # reaches assemble_thermal via bench
        cfg = config.parse_config("[mesh]\ngenerator quarter_annulus\nr_a 1\nr_b 2\n"
                                  "n_r 2\nn_t 2\nsplit_radius 1.5\n")
        config.build_mesh(cfg)                         # reaches the generator via GENERATORS

    names = tracer.span_names()
    assert names.count("assembly.assemble_thermal") == 1
    assert names.count("mesh.generate_quarter_annulus") == 2
    assert "solver.splu" in names
    metrics = spans.layer_metrics(tracer, traced_wall_s=1.0)
    assert metrics["assembly.nnz_thermal"] > 0
    assert metrics["solver.lu_fill_thermal"] > 0
    assert metrics["vem.projection_calls"] > 0

    assert list(_bindings(modules)) == before
    assert not hasattr(solver.spla, "_module")


def test_stage_table_counts_nested_stage_calls_once():
    tracer = spans.Tracer("stages")
    helper = tracer.wrap("mesh.generate_tagged_grid", lambda: None)

    def generator():
        helper()

    tracer.wrap("mesh.generate_sandwich", generator)()
    rows = {r[0]: r for r in spans.stage_table(tracer, 1.0, 0.0, 0.0)}
    assert rows["build_mesh"][1] == 1
    assert rows["build_mesh"][2] == pytest.approx(tracer.end[0] - tracer.start[0])


def test_spans_written_with_run_id(tmp_path):
    tracer = spans.Tracer("run-7")
    tracer.wrap("t.f", lambda: None)()
    tracer.write(tmp_path / "spans.npz")
    data = np.load(tmp_path / "spans.npz")
    assert list(data["runs"]) == ["run-7"]
    assert data["start"].size == data["end"].size == data["parent"].size == data["run"].size == 1
