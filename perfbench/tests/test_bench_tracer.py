from fractions import Fraction

import pytest

import tracer as tracing
import workloads


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["d", 5.0, 9.0, 0, 0],
        ["e", 11.0, 12.0, -1, 1],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_self_times_sum_to_top_level_durations():
    spans = [
        ["a", 0.0, 8.0, -1, 0],
        ["b", 0.5, 6.5, 0, 0],
        ["b", 1.0, 2.0, 1, 0],
        ["c", 3.0, 6.0, 1, 0],
    ]
    assert sum(tracing.self_times(spans)) == 8.0


@pytest.fixture
def installed(lib):
    tracer = tracing.Tracer(lib)
    tracer.install()
    tracer.op = 0
    yield tracer
    tracer.uninstall()


def test_wrapper_catches_every_import_site(lib, installed):
    m = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))
    lib["exact"].rref(m)
    lib["cones"].rref(m)
    lib["polyhedra"].rref(m)
    calls = [s for s in installed.spans if s[0] == "exact.rref"]
    assert len(calls) == 3
    assert lib["cones"].rref is lib["exact"].rref is lib["polyhedra"].rref


def test_uninstall_restores_every_binding(lib):
    original = lib["exact"].rref
    minimal = lib["cones"].Cone.minimal
    tracer = tracing.Tracer(lib)
    tracer.install()
    assert lib["cones"].rref is not original
    tracer.uninstall()
    assert lib["cones"].rref is original is lib["exact"].rref
    assert lib["cones"].Cone.minimal is minimal
    assert tracer.spans == []


def test_methods_and_cache_ratios(lib, installed):
    cone = lib["cones"].Cone.from_hrep([(1, 0), (0, 1)])
    cone.minimal()
    cone.minimal()
    metrics = tracing.layer_metrics(installed, passes=1, scale=1.0)
    assert metrics["cones.minimal.calls"] == (2, "count")
    assert metrics["cones.minimal.hit_ratio"] == (0.5, "ratio")
    assert metrics["cones.dd.calls"][0] >= 1
    assert metrics["cones.dd.rows_in"][0] >= 2


def test_spans_outside_ops_are_left_out(lib, installed):
    installed.op = None
    lib["exact"].rank(((Fraction(1),),))
    installed.op = 4
    lib["exact"].rank(((Fraction(1),),))
    metrics = tracing.layer_metrics(installed, passes=1, scale=1.0)
    assert metrics["exact.rank.calls"] == (1, "count")
    assert [s[4] for s in installed.spans if s[0] == "exact.rank"] == [None, 4]


def test_nested_spans_record_their_parent(lib, installed):
    lib["cones"].Cone.from_hrep([(1, 0), (0, 1)]).minimal()
    by_index = installed.spans
    minimal = next(i for i, s in enumerate(by_index) if s[0] == "cones.minimal")
    dd = [s for s in by_index if s[0] == "cones.dd"]
    assert dd and all(s[3] == minimal for s in dd)


def _top_level_names(tracer, workload):
    """Run the workload's first op under the tracer, which is installed only
    after the workload was built; the names of the op's outermost spans."""
    label, op = workload.ops()[0]
    tracer.install()
    try:
        tracer.op = 0
        op()
    finally:
        tracer.uninstall()
    return [s[0] for s in tracer.spans if s[3] == -1]


def test_calls_made_by_a_workload_built_before_install_are_traced(lib):
    names = _top_level_names(tracing.Tracer(lib), workloads.EtaSweep(lib, 0))
    assert names.count("reports.split_report") == 8
    assert names.count("serialize.canonical_json") == 8
    names = _top_level_names(tracing.Tracer(lib), workloads.Corpus(lib, 0))
    assert names.count("serialize.canonical_json") == 1
