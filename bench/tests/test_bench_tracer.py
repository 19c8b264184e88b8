"""Self time, the patcher, and the traced entry points of the benchmark."""

import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src"))

from tracer import Patches, Tracer, patch_function, patch_method, self_times  # noqa: E402


def test_self_time_nested():
    # 0 [0,100] > 1 [10,60] > 2 [20,30]
    starts, ends, parents = [0, 10, 20], [100, 60, 30], [-1, 0, 1]
    assert self_times(starts, ends, parents) == [50, 40, 10]


def test_self_time_overlapping_children():
    # children [10,40] and [30,50] overlap: the parent loses [10,50] once;
    # a child reaching past the parent's end counts only inside it
    starts, ends, parents = [0, 10, 30, 90], [100, 40, 50, 120], [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == 100 - 40 - 10


def test_self_time_disjoint_and_contained_children():
    starts = [0, 5, 10, 12, 50]
    ends = [100, 30, 20, 15, 60]
    parents = [-1, 0, 0, 0, 0]  # [10,20] and [12,15] lie inside [5,30]
    assert self_times(starts, ends, parents)[0] == 100 - 25 - 10


def _fake_modules():
    lib = types.ModuleType("bench_fake_lib")

    def work(x):
        return x + 1

    lib.work = work
    user = types.ModuleType("bench_fake_user")
    user.helper = work  # as after `from bench_fake_lib import work as helper`
    other = types.ModuleType("bench_fake_other")
    other.work = work
    for m in (lib, user, other):
        sys.modules[m.__name__] = m
    return lib, user, other, work


def test_patch_reaches_every_binding():
    lib, user, other, work = _fake_modules()
    tracer = Tracer()
    patches = Patches()
    try:
        reached = patch_function(patches, lib, "work", tracer.wrap("fake.work", work))
        assert reached[0] == "bench_fake_lib.work"
        assert set(reached) == {"bench_fake_lib.work", "bench_fake_user.helper",
                                "bench_fake_other.work"}
        with tracer.job(0):
            assert user.helper(1) == 2 and other.work(2) == 3 and lib.work(3) == 4
        assert sum(1 for s in tracer.spans() if s[0] == "fake.work") == 3
    finally:
        patches.undo()
        for m in (lib, user, other):
            del sys.modules[m.__name__]
    assert lib.work is work and user.helper is work and other.work is work


def test_patch_method_aliases():
    class Num:
        def __init__(self, v):
            self.v = v

        def __mul__(self, other):
            return Num(self.v * other)

        __rmul__ = __mul__

    tracer = Tracer()
    patches = Patches()
    original = Num.__dict__["__mul__"]
    reached = patch_method(patches, Num, "__mul__", tracer.wrap("num.mul", original))
    assert sorted(reached) == ["Num.__mul__", "Num.__rmul__"]
    with tracer.job(0):
        (Num(2) * 3, 3 * Num(2))
    patches.undo()
    assert Num.__dict__["__mul__"] is original and Num.__dict__["__rmul__"] is original
    assert [s[0] for s in tracer.spans()] == ["job", "num.mul", "num.mul"]


def test_install_rebinds_library_aliases_and_nests_spans():
    from layers import install, layer_metrics

    import opercalc.dictionary
    import opercalc.gauge
    import opercalc.lie
    import opercalc.matrices
    from opercalc.lie import model

    original = opercalc.matrices.smat_mul
    tracer = Tracer()
    patches = install(tracer)
    try:
        wrapped = opercalc.matrices.smat_mul
        assert wrapped is not original
        for mod in (opercalc.gauge, opercalc.lie, opercalc.dictionary):
            assert mod.smat_mul is wrapped
        m = model("A", 1)
        x = [[c for c in row] for row in opercalc.matrices.smat_from_frac(m.x)]
        y = opercalc.matrices.smat_from_frac(m.y)
        with tracer.job(0):
            opercalc.matrices.smat_comm(x, y)
    finally:
        patches.undo()
    assert opercalc.gauge.smat_mul is original and opercalc.lie.smat_mul is original
    spans = list(tracer.spans())
    comm = [i for i, s in enumerate(spans) if s[0] == "matrices.smat_comm"]
    muls = [s for s in spans if s[0] == "matrices.smat_mul"]
    assert len(comm) == 1 and len(muls) == 2
    assert all(s[3] == comm[0] for s in muls)
    metrics, calls = layer_metrics(tracer)
    assert calls["matrices.smat_mul"] == 2 and calls["series.mul"] > 0
    assert metrics["matrices.smat_comm.self_s"] >= 0
