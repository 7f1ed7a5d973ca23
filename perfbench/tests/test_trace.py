from __future__ import annotations

import types

import pytest

from perfbench.trace import Span, SpanRecorder


def test_self_time_subtracts_the_union_of_child_intervals():
    recorder = SpanRecorder()
    recorder.spans = [
        Span("parent", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),       # overlaps a: counted once
        Span("grandchild", 2.5, 4.5, 2, 0),  # inside b: not the parent's
        Span("c", 8.0, 12.0, 0, 0),      # clipped to the parent's end
    ]
    self_times = recorder.self_times()
    assert self_times[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert self_times[2] == pytest.approx(3.0 - 2.0)
    assert self_times[1] == pytest.approx(2.0)


def test_wrapped_calls_nest_carry_frame_ids_and_restore():
    module = types.SimpleNamespace()

    def inner(x):
        return x + 1

    module.inner = inner

    def outer(x):
        return module.inner(x) * 2

    module.outer = outer

    class Pyramid:
        @classmethod
        def build(cls, x):
            return (cls, x)

    recorder = SpanRecorder()
    patches = [
        (module, "outer", "outer", {}),
        (module, "inner", "inner", {"attrs_of": lambda a, k, r: {"r": r}}),
        (Pyramid, "build", "build", {}),
        (module, "missing", "missing", {}),
    ]
    with recorder.installed(patches) as missing:
        with recorder.frame(7):
            assert module.outer(1) == 4
        assert Pyramid.build(3) == (Pyramid, 3)
    assert missing == ["missing"]
    assert module.outer is outer and module.inner is inner
    outer_span, inner_span, build_span = recorder.spans
    assert inner_span.parent == 0 and outer_span.parent == -1
    assert (outer_span.frame, inner_span.frame) == (7, 7)
    assert build_span.frame is None
    assert inner_span.attrs == {"r": 2}
    assert outer_span.start <= inner_span.start <= inner_span.end \
        <= outer_span.end
    assert recorder.self_times()[0] == pytest.approx(
        outer_span.duration - inner_span.duration)
