"""Oracle (hypothesis) for the sweep executor's cache keys.

A point's cache key must cover every input that changes the point's
result, and nothing else.  Each property draws a small valid task of
one of the five cacheable task types (:class:`BerSweepTask`,
:class:`FunctionTask`, :class:`NetSimTask`, :class:`MultiAPTask` and
:class:`ShootoutTask`) and holds its keys to three rules:

* Perturbing any task field, or any field nested in its config, with a
  change that still constructs must change the key at a fixed
  ``(seed, index, value)``.  A float equal to zero is perturbed by
  flipping its sign: ``0.0 == -0.0``, but ``float.hex`` tells them
  apart, and so may the simulation.
* Execution-only choices must not change any key: ``serial`` against
  ``fused`` link backends, and the executor backend that runs the
  sweep.
* The seed, the point index and the sweep value must each change it.

Every key in this file comes from :func:`_key`, and two tests hold
that helper to the entry names a real executor run writes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.blockage import BlockageEvent
from repro.channel.environment import ClutterReflector, Environment
from repro.core.ap import APConfig
from repro.core.link import LinkConfig
from repro.core.modulation import available_schemes
from repro.core.tag import TagConfig
from repro.net.deployment import MultiAPConfig
from repro.net.scenario.backoff import strategy_names
from repro.net.scenario.shootout import ShootoutTask
from repro.net.sim import PROTOCOLS, NetSimConfig
from repro.net.task import MultiAPTask, NetSimTask
from repro.rf.noise import PhaseNoiseModel
from repro.rf.quantize import ADC
from repro.sim.cache import ResultCache
from repro.sim.executor import BerSweepTask, FunctionTask, SweepExecutor, sweep_keys


def _key(cache: ResultCache, task, seed: int, index: int, value: float):
    """The cache key of point ``index`` (at ``value``) of a sweep of
    ``task`` under root ``seed``, or ``None`` when it is uncacheable."""
    keys = sweep_keys(cache, task, [value] * (index + 1), seed)
    return None if keys is None else keys[index]


def _square(value: float) -> float:
    """Module-level so the process backend can pickle it."""
    return value * value


def _cube(value: float) -> float:
    return value * value * value


@pytest.fixture(scope="module")
def cache(tmp_path_factory) -> ResultCache:
    return ResultCache(tmp_path_factory.mktemp("keys"), version="oracle")


# -- perturbations ------------------------------------------------------------

#: Valid replacements for string fields and string tuple elements.
_CHOICES = {
    "modulation": tuple(available_schemes()),
    "protocol": PROTOCOLS,
    "strategies": strategy_names(),
    "fn": (_square, _cube),
}

#: What a field holding ``None`` may hold instead.
_NONE_FILL = {
    "rician_k_db": (6.0,),
    "phase_noise": (PhaseNoiseModel(),),
    "adc": (ADC(),),
    "transmit_probability": (0.5,),
    "mean_dwell_s": (2.0,),
}

#: One element for an empty tuple field (``line_phase_errors_rad`` only
#: constructs at ``num_pairs`` elements, so lengths 1-8 are tried).
_TUPLE_FILL = {
    "line_phase_errors_rad": 0.1,
    "reflectors": ClutterReflector(distance_m=2.0, rcs_dbsm=-10.0),
    "blockage_events": BlockageEvent(0.0, 1e-5, 10.0),
}

def _get(obj, path: tuple):
    for step in path:
        obj = obj[step] if isinstance(step, int) else getattr(obj, step)
    return obj


def _set(obj, path: tuple, new):
    """``obj`` with the value at ``path`` replaced, rebuilt (and so
    re-validated) at every level."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(head, int):
        items = list(obj)
        items[head] = _set(obj[head], rest, new)
        return tuple(items)
    return replace(obj, **{head: _set(getattr(obj, head), rest, new)})


def _paths(obj, prefix: tuple = ()):
    """Every perturbable position under a dataclass: each non-dataclass
    field, each optional dataclass field, each tuple and each tuple
    element, recursing through nested dataclasses."""
    for field in dataclasses.fields(obj):
        path = prefix + (field.name,)
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            if field.name in _NONE_FILL:
                yield path
            yield from _paths(value, path)
            continue
        yield path
        if isinstance(value, tuple):
            for i, item in enumerate(value):
                if dataclasses.is_dataclass(item):
                    yield from _paths(item, path + (i,))
                else:
                    yield path + (i,)


def _candidates(task, path: tuple, value) -> list:
    """Type-appropriate replacements for ``value`` at ``path``."""
    name = [step for step in path if isinstance(step, str)][-1]
    if path == ("link_backend",):
        # Only a move into or out of the statistical tier changes results.
        return ["serial", "fused"] if value == "fast" else ["fast"]
    if path == ("param",):
        return [f.name for f in dataclasses.fields(task.config) if f.name != value]
    if name in _CHOICES and not isinstance(value, tuple):
        return [choice for choice in _CHOICES[name] if choice != value]
    if value is None:
        return list(_NONE_FILL[name])
    if name in _NONE_FILL:
        extra = [None]
    else:
        extra = []
    if dataclasses.is_dataclass(value):
        return extra
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, value - 1, value + 2] + extra
    if isinstance(value, float):
        if value == 0.0:
            return [-value] + extra  # 0.0 <-> -0.0: equal, not identical
        return [value * 1.5, value * 0.5, -value] + extra
    if isinstance(value, str):
        return [value + "x"]
    if isinstance(value, tuple):
        if not value:
            return [(_TUPLE_FILL[name],) * n for n in range(1, 9)]
        return [value[:-1], (), value + value[:1]]
    raise AssertionError(f"no perturbation for {path} = {value!r}")


def _perturbations(task):
    """``(path, perturbed task)`` for every construction-valid candidate
    at every path; fails when some path has none."""
    for path in _paths(task):
        built = 0
        for candidate in _candidates(task, path, _get(task, path)):
            try:
                perturbed = _set(task, path, candidate)
            except (ValueError, TypeError):
                continue
            built += 1
            yield path, perturbed
        assert built, f"no valid perturbation of {path} for {type(task).__name__}"


# -- strategies -----------------------------------------------------------------

_signed_zero = st.sampled_from([0.0, -0.0])
_seeds = st.integers(0, 2**32 - 1)
_indices = st.integers(0, 5)
_values = st.one_of(
    _signed_zero, st.floats(0.5, 40.0, allow_nan=False, allow_infinity=False)
)


@st.composite
def _link_configs(draw) -> LinkConfig:
    return LinkConfig(
        distance_m=draw(st.floats(0.5, 20.0, allow_nan=False)),
        incidence_angle_deg=draw(
            st.one_of(_signed_zero, st.floats(-60.0, 60.0, allow_nan=False))
        ),
        tag=TagConfig(
            modulation=draw(st.sampled_from(["BPSK", "QPSK", "8PSK", "OOK"])),
            subcarrier_hz=draw(st.sampled_from([0.0, 20e6])),
        ),
        ap=APConfig(
            adc=draw(st.sampled_from([None, ADC(bits=8)])),
            equalizer_taps=draw(st.sampled_from([0, 3])),
        ),
        environment=draw(
            st.sampled_from([Environment.anechoic(), Environment.typical_office()])
        ),
        rician_k_db=draw(st.sampled_from([None, 0.0, 6.0])),
        radial_velocity_m_s=draw(st.sampled_from([0.0, -0.0, 1.5])),
        blockage_events=draw(
            st.sampled_from([(), (BlockageEvent(0.2e-5, 1.0e-5, 10.0),)])
        ),
        phase_noise=draw(st.sampled_from([None, PhaseNoiseModel()])),
        include_noise=draw(st.booleans()),
    )


@st.composite
def _ber_tasks(draw) -> BerSweepTask:
    bits_per_frame = draw(st.sampled_from([256, 2048]))
    return BerSweepTask(
        config=draw(_link_configs()),
        param=draw(
            st.sampled_from(
                ["distance_m", "incidence_angle_deg", "implementation_loss_db"]
            )
        ),
        target_errors=draw(st.integers(1, 200)),
        max_bits=bits_per_frame * draw(st.integers(1, 8)),
        bits_per_frame=bits_per_frame,
        link_backend=draw(st.sampled_from(["serial", "fused", "fast"])),
    )


@st.composite
def _netsim_configs(draw) -> NetSimConfig:
    return NetSimConfig(
        num_tags=draw(st.integers(1, 50)),
        num_slots=draw(st.integers(10, 400)),
        protocol=draw(st.sampled_from(PROTOCOLS)),
        min_distance_m=draw(st.sampled_from([1.0, 1.5])),
        transmit_probability=draw(st.sampled_from([None, 0.3])),
        persistent=draw(st.booleans()),
        arrival_rate_hz=draw(st.sampled_from([0.0, -0.0, 20.0])),
        mean_dwell_s=draw(st.sampled_from([None, 2.0])),
        blockage_rate_hz=draw(st.sampled_from([0.0, 5.0])),
    )


@st.composite
def _netsim_tasks(draw) -> NetSimTask:
    return NetSimTask(
        config=draw(_netsim_configs()),
        param=draw(st.sampled_from(["num_tags", "num_slots", "arrival_rate_hz"])),
    )


@st.composite
def _multi_ap_tasks(draw) -> MultiAPTask:
    config = MultiAPConfig(
        grid_rows=draw(st.integers(1, 3)),
        grid_cols=draw(st.integers(1, 3)),
        num_tags=draw(st.integers(10, 200)),
        num_slots=draw(st.integers(50, 400)),
        mobile_fraction=draw(st.sampled_from([0.0, 0.1])),
        hotspot_fraction=draw(st.sampled_from([0.0, -0.0, 0.5])),
        relay_enabled=draw(st.booleans()),
        persistent=draw(st.booleans()),
    )
    return MultiAPTask(
        config=config,
        param=draw(st.sampled_from(["num_tags", "num_slots", "ap_spacing_m"])),
    )


@st.composite
def _shootout_tasks(draw) -> ShootoutTask:
    strategies = draw(
        st.lists(st.sampled_from(strategy_names()), min_size=1, max_size=4, unique=True)
    )
    return ShootoutTask(
        config=draw(_netsim_configs()),
        strategies=tuple(strategies),
        seed=draw(st.integers(0, 1000)),
    )


@st.composite
def _function_tasks(draw) -> FunctionTask:
    return FunctionTask(
        fn=draw(st.sampled_from([_square, _cube])),
        cache_token=draw(st.text("abcxyz-019", min_size=1, max_size=8)),
    )


_tasks = st.one_of(
    _ber_tasks(), _function_tasks(), _netsim_tasks(), _multi_ap_tasks(),
    _shootout_tasks(),
)


# -- the oracle -----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(_tasks, _seeds, _indices, _values)
def test_every_field_changes_the_key(cache, task, seed, index, value):
    base = _key(cache, task, seed, index, value)
    assert base is not None
    assert _key(cache, replace(task), seed, index, value) == base
    for path, perturbed in _perturbations(task):
        assert _key(cache, perturbed, seed, index, value) != base, path


@settings(max_examples=40, deadline=None)
@given(_tasks, _seeds, _indices, _values)
def test_seed_index_and_value_each_change_the_key(cache, task, seed, index, value):
    base = _key(cache, task, seed, index, value)
    assert _key(cache, task, seed + 1, index, value) != base
    assert _key(cache, task, seed, index + 1, value) != base
    others = [-value] if value == 0.0 else [value * 1.5, -value]
    for other in others:
        assert _key(cache, task, seed, index, other) != base


@settings(max_examples=25, deadline=None)
@given(_ber_tasks(), _seeds, _indices, _values)
def test_exact_link_backends_share_keys(cache, task, seed, index, value):
    keys = {
        _key(cache, replace(task, link_backend=backend), seed, index, value)
        for backend in ("serial", "fused")
    }
    assert len(keys) == 1
    fast = _key(cache, replace(task, link_backend="fast"), seed, index, value)
    assert fast not in keys


def test_token_free_function_task_is_uncacheable(cache):
    assert _key(cache, FunctionTask(_square), 0, 0, 1.0) is None


# -- the helper against real runs -------------------------------------------------


def _entry_names(directory) -> set[str]:
    return {path.name for path in directory.glob("*.pkl")}


def test_executor_backends_write_the_same_entries(tmp_path):
    task = FunctionTask(_square, cache_token="square-v1")
    values = [0.5, 1.5, 2.5, 3.5, -0.0]
    written = {}
    for backend, workers in (("serial", None), ("process", 2)):
        directory = tmp_path / backend
        cache = ResultCache(directory, version="oracle")
        SweepExecutor(backend, max_workers=workers, cache=cache).run(
            values, task, seed=11
        )
        written[backend] = _entry_names(directory)
    expected = {
        f"{_key(cache, task, 11, i, v)}.pkl" for i, v in enumerate(values)
    }
    assert written["serial"] == written["process"] == expected


def test_ber_sweep_entries_are_the_helper_keys(tmp_path):
    task = BerSweepTask(
        LinkConfig(), bits_per_frame=256, max_bits=256, link_backend="fused"
    )
    values = [1.0, 4.0, 9.0]
    cache = ResultCache(tmp_path, version="oracle")
    SweepExecutor("serial", cache=cache).run(values, task, seed=5)
    serial = replace(task, link_backend="serial")
    assert _entry_names(tmp_path) == {
        f"{_key(cache, serial, 5, i, v)}.pkl" for i, v in enumerate(values)
    }
