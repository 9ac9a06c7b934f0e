"""Span arithmetic and wrapper installation, on synthetic spans and modules."""
from __future__ import annotations

import types

import pytest

from perfbench import spans
from perfbench.spans import Span


def tree() -> list[Span]:
    # main [0, 10]
    #   a.f [1, 4]        (layer a)
    #     b.g [2, 3]      (layer b)
    #   a.f [5, 9]        (layer a)
    #     a.f [6, 8]      (recursive call, same name)
    return [
        Span("cli.main", "cli", None, 0.0, 10.0, 100, 300),
        Span("a.f", "a", 0, 1.0, 4.0, 100, 150),
        Span("b.g", "b", 1, 2.0, 3.0, 120, 150),
        Span("a.f", "a", 0, 5.0, 9.0, 150, 300),
        Span("a.f", "a", 3, 6.0, 8.0, 200, 300),
    ]


def test_merged_length_overlaps_and_gaps():
    assert spans.merged_length([]) == 0.0
    assert spans.merged_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert spans.merged_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_is_duration_minus_children():
    assert spans.self_times(tree()) == pytest.approx([3.0, 2.0, 1.0, 2.0, 2.0])


def test_summary_counts_recursion_once_and_layers_at_entry():
    s = spans.summarize(tree())
    assert s.calls == {"cli.main": 1, "a.f": 3, "b.g": 1}
    assert s.inclusive_s["a.f"] == pytest.approx(3.0 + 4.0)
    assert s.entry_s["a.f"] == pytest.approx(3.0 + 4.0)
    assert s.layer_self_s == pytest.approx({"cli": 3.0, "a": 6.0, "b": 1.0})
    # Layer self times partition the root span.
    assert sum(s.layer_self_s.values()) == pytest.approx(10.0)
    assert s.layer_rss_rise_kb == {"cli": 200, "a": 50 + 150, "b": 30}


def make_modules():
    low = types.ModuleType("pkg.low")

    def square(x):
        return x * x

    square.__module__ = "pkg.low"
    low.square = square
    high = types.ModuleType("pkg.high")

    def total(xs):
        return sum(high.square(x) for x in xs)

    total.__module__ = "pkg.high"
    high.total = total
    high.square = square  # imported name, as `from .low import square`
    high._private = lambda: None
    return {"low": low, "high": high}, square, total


def test_install_wraps_imported_names_once_and_restores():
    modules, square, total = make_modules()
    tracer = spans.Tracer()
    inst = spans.install(tracer, modules, ["low.square", "high.total", "low.gone"], {})
    assert inst.absent == ["low.gone"]
    assert modules["high"].square is modules["low"].square is not square
    assert modules["high"].total([1, 2, 3]) == 14
    assert [(s.name, s.layer, s.parent) for s in tracer.spans] == [
        ("high.total", "high", None),
        ("low.square", "low", 0), ("low.square", "low", 0), ("low.square", "low", 0),
    ]
    inst.restore()
    assert modules["low"].square is square and modules["high"].square is square
    assert modules["high"].total is total


def test_a_hook_that_no_longer_fits_is_reported_not_raised():
    modules, _, _ = make_modules()
    tracer = spans.Tracer()

    def hook(counts, args, kwargs, result):
        counts["n"] = counts.get("n", 0) + result.no_such_attribute

    inst = spans.install(tracer, modules, [], {"low.square": hook})
    try:
        assert modules["high"].total([1, 2]) == 5
    finally:
        inst.restore()
    assert tracer.broken_hooks == {"low.square"}
    assert tracer.counts == {}


def test_spans_close_when_the_function_raises():
    modules, _, _ = make_modules()
    tracer = spans.Tracer()
    inst = spans.install(tracer, modules, [], {})
    try:
        with pytest.raises(TypeError):
            modules["low"].square(None)
        assert modules["low"].square(3) == 9
    finally:
        inst.restore()
    assert [s.parent for s in tracer.spans] == [None, None]
    assert all(s.end >= s.start for s in tracer.spans)
