"""The span recorder: transparent wrappers, self-time arithmetic, and
every declared span firing on its workload."""

import inspect
import math
import math as toy_math

import pytest

import tracing
from workloads import WORKLOADS


class _Toy:
    def method(self, x):
        return x * 2

    @staticmethod
    def static(x):
        return x + 1

    @classmethod
    def klass(cls, x):
        return cls.__name__, x

    def __iter__(self):
        yield from (1, 2, 3)


def toy_function(x):
    return -x


_TOY_SPANS = (
    tracing.Span("toy.method", "toy", (f"{__name__}:_Toy.method",), ()),
    tracing.Span("toy.descriptors", "toy",
                 (f"{__name__}:_Toy.static", f"{__name__}:_Toy.klass"), ()),
    tracing.Span("toy.items", "toy", (f"{__name__}:_Toy.__iter__",), (),
                 per_item=True),
    tracing.Span("toy.functions", "toy",
                 (f"{__name__}:toy_function", f"{__name__}:toy_math.sqrt"), ()),
)


def _toy_calls():
    toy = _Toy()
    return (toy.method(3), _Toy.static(3), toy.static(4), _Toy.klass(5), list(toy),
            toy_function(3), toy_math.sqrt(16.0))


def test_wrapping_changes_no_return_values_and_uninstall_restores():
    expected = _toy_calls()
    originals = {
        name: inspect.getattr_static(_Toy, name)
        for name in ("method", "static", "klass", "__iter__")
    }
    sqrt = math.sqrt
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder, _TOY_SPANS)
    try:
        assert toy_math is not math  # the importing module sees a proxy ...
        assert math.sqrt is sqrt  # ... and the library is untouched
        with recorder.root():
            assert _toy_calls() == expected
    finally:
        uninstall()
    assert {
        name: inspect.getattr_static(_Toy, name) for name in originals
    } == originals
    assert toy_math is math
    spans = recorder.report()
    assert spans["toy.method"]["calls"] == 1
    assert spans["toy.descriptors"]["calls"] == 3
    assert spans["toy.items"]["calls"] == 4  # three items, then exhaustion
    assert spans["toy.functions"]["calls"] == 2


def test_self_time_subtracts_child_spans():
    # root 0-100 > outer 10-60 > inner 15-30 and 40-45 (nanoseconds)
    ticks = iter([0, 10, 15, 30, 40, 45, 60, 100])
    recorder = tracing.Recorder(clock=lambda: next(ticks))
    inner = recorder.wrap(lambda: None, tracing.Span("inner", "t", (), (), percentiles=True))

    def body():
        inner()
        inner()

    with recorder.root():
        recorder.wrap(body, tracing.Span("outer", "t", (), ()))()
    spans = recorder.report()
    assert (spans["inner"]["calls"], spans["inner"]["total_s"], spans["inner"]["self_s"]) == (
        2, 20e-9, 20e-9)
    assert spans["inner"]["p50_us"] == pytest.approx(0.010)
    assert (spans["outer"]["total_s"], spans["outer"]["self_s"]) == (50e-9, 30e-9)
    assert (spans["root"]["total_s"], spans["root"]["self_s"]) == (100e-9, 50e-9)


def test_raising_call_closes_its_span():
    recorder = tracing.Recorder()

    def boom():
        raise ValueError("boom")

    with recorder.root(), pytest.raises(ValueError):
        recorder.wrap(boom, tracing.Span("boom", "t", (), ()))()
    spans = recorder.report()
    assert spans["boom"]["calls"] == 1 and spans["root"]["calls"] == 1
    assert spans["root"]["self_s"] >= 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_declared_spans_fire_and_traced_outputs_match(name, tmp_path):
    # Traced first: the untraced op then reuses the simulators the
    # traced one built, which cannot change its outputs.
    recorder = tracing.Recorder()
    traced_workload = WORKLOADS[name](0, tmp_path / "traced")
    uninstall = tracing.install(recorder)
    try:
        with recorder.root():
            traced = traced_workload.op(0)
    finally:
        uninstall()
    plain = WORKLOADS[name](0, tmp_path / "plain").op(0)
    assert plain.failures == [] and traced.failures == []
    assert traced.digest == plain.digest
    spans = recorder.report()
    silent = [
        span.name
        for span in tracing.SPANS
        if name in span.workloads and spans[span.name]["calls"] == 0
    ]
    assert silent == []
