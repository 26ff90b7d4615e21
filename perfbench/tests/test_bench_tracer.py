"""Span recording, self-time arithmetic and function wrapping."""

import types

from tracer import Span, Tracer, self_times


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_children_at_every_depth():
    spans = [Span(0, "root", "p", None, 0, 0, 100),
             Span(1, "a", "p", 0, 0, 10, 30),
             Span(2, "b", "p", 0, 0, 40, 70),
             Span(3, "c", "p", 2, 0, 50, 60)]
    assert self_times(spans) == {0: 50, 1: 20, 2: 20, 3: 10}


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "root", "p", None, 0, 0, 100),
             Span(1, "a", "p", 0, 0, 10, 50),
             Span(2, "b", "p", 0, 0, 30, 120)]
    assert self_times(spans)[0] == 10


def test_nested_wrapped_calls_record_parent_root_and_phase():
    tracer = Tracer(clock=fake_clock([0, 10, 30, 40, 50, 60, 70, 100, 200, 205]))
    inner = tracer.wrap("inner", lambda: None)
    middle = tracer.wrap("middle", lambda: inner())
    outer = tracer.wrap("outer", lambda: (inner(), middle()))
    tracer.phase = "train"
    outer()
    tracer.phase = "save"
    inner()
    names = [(s.name, s.parent, s.root, s.phase) for s in tracer.spans]
    assert names == [("outer", None, 0, "train"), ("inner", 0, 0, "train"),
                     ("middle", 0, 0, "train"), ("inner", 2, 0, "train"),
                     ("inner", None, 4, "save")]
    totals = tracer.totals()
    assert totals[("train", "outer")] == (100 - 20 - 30, 1)
    assert totals[("train", "middle")] == (30 - 10, 1)
    assert totals[("train", "inner")] == (20 + 10, 2)
    assert totals[("save", "inner")] == (5, 1)


def _modules():
    lib = types.ModuleType("lib")

    def work(x):
        return x + 1

    class Table:  # methods look ``work`` up at call time, as module globals are
        @classmethod
        def load(cls, x):
            return lib.work(x)

        def embed(self, x):
            return lib.work(x)

    lib.work = work
    lib.Table = Table
    user = types.ModuleType("user")
    user.work = work  # as ``from .lib import work`` leaves it
    user.call = lambda x: user.work(x)
    return {"lib": lib, "user": user}


def test_install_wraps_every_binding_and_uninstall_restores():
    modules = _modules()
    original = modules["lib"].work
    tracer = Tracer()
    seen = []
    tracer.install(modules, ["lib.work", "lib.Table.load", "lib.Table.embed"],
                   probes={"lib.work": lambda t, args, kwargs: seen.append(args)})
    assert modules["user"].call(1) == 2
    assert modules["lib"].Table.load(2) == 3
    assert modules["lib"].Table().embed(3) == 4
    assert [s.name for s in tracer.spans] == [
        "lib.work", "lib.Table.load", "lib.work", "lib.Table.embed", "lib.work"]
    assert seen == [(1,), (2,), (3,)]
    tracer.uninstall()
    assert modules["lib"].work is original and modules["user"].work is original
    modules["user"].call(1)
    assert len(tracer.spans) == 5


def test_missing_target_is_reported_absent_not_fatal():
    modules = _modules()
    tracer = Tracer()
    tracer.install(modules, ["lib.gone", "lib.Missing.forward", "nomodule.f", "lib.work"])
    assert tracer.absent == ["lib.gone", "lib.Missing.forward", "nomodule.f"]
    modules["user"].call(0)
    assert [s.name for s in tracer.spans] == ["lib.work"]
    tracer.uninstall()


def test_descendant_search_sees_through_unwrapped_frames():
    spans = [Span(0, "embed", "predict", None, 0, 0, 10),
             Span(1, "other", "predict", 0, 0, 1, 9),
             Span(2, "gru", "predict", 1, 0, 2, 8),
             Span(3, "embed", "predict", None, 3, 20, 30)]
    tracer = Tracer()
    tracer.spans = spans
    assert tracer.has_descendant("embed", "gru") == {0}
