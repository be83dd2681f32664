"""Property-based tests (hypothesis) for the metro hot path's shortcuts.

Each shortcut replaces array work on every slot, handoff or epoch, and
each must agree exactly with the computation it stands in for:

* :attr:`TagPopulation.unread_active` is the drain check's counter; it
  must equal ``active_unread_ids().size`` after any interleaving of
  arrivals, departures (of read and unread tags) and reads, and never
  go negative.
* :meth:`LinkBudgetModel.frame_success` prices one SNR; it must return
  the array path's bucket value bit for bit, including at the x.xx5
  bucket edges where ``np.round`` and Python's ``round`` disagree.
* :meth:`LinkBudgetModel.frame_success_from_snr_db` and
  :meth:`~LinkBudgetModel.frame_success` must return the prices of a
  cache-free reference (one closed-form BER per ``np.round(x, 2)`` key)
  bit for bit, for any inputs in any call order — specials included.
* :class:`AssociationProcess` must leave distance and SNR matrices that
  equal a from-scratch pricing of the current positions bit for bit,
  however tags moved since the last epoch.
"""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.channel.environment import Environment
from repro.core.ap import APConfig
from repro.core.tag import TagConfig
from repro.net import (
    Deployment,
    LinkBudgetModel,
    MetroTagPopulation,
    MultiAPConfig,
    TagPopulation,
)
from repro.net.deployment import AssociationProcess, _EpochShared
from repro.net.engine import Simulator

_IDS = st.integers(0, 63)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 5)),
        st.tuples(st.just("depart"), _IDS),
        st.tuples(st.just("read"), _IDS),
        st.tuples(st.just("reads"), st.sets(_IDS, max_size=8)),
    ),
    max_size=60,
)


class TestUnreadActiveCounter:
    @given(ops=_OPS)
    @example(ops=[("add", 2), ("read", 0), ("depart", 0), ("depart", 1)])
    def test_counter_equals_the_scan(self, ops):
        pop = TagPopulation()
        for kind, arg in ops:
            n = len(pop)
            if kind == "add":
                pop.add(
                    np.full(arg, 2.0),
                    np.zeros(arg),
                    np.full(arg, 0.9),
                    np.full(arg, 0.1),
                    0.0,
                )
            elif n == 0:
                continue
            elif kind == "depart":
                pop.depart(arg % n, 1.0)
            elif kind == "read":
                pop.record_read(arg % n, 8, 1.0)
            else:
                ids = np.array(sorted({i % n for i in arg}), dtype=np.int64)
                pop.record_reads(ids, 8, 1.0)
            assert pop.unread_active >= 0
            assert pop.unread_active == pop.active_unread_ids().size


def _model() -> LinkBudgetModel:
    return LinkBudgetModel(TagConfig(), APConfig(), Environment.anechoic(), 256)


#: Separate models, so each path fills its own table: a key mismatch
#: cannot hide behind a bucket the other path already filled.
_SCALAR, _ARRAY = _model(), _model()

#: SNRs on and one ulp either side of the x.xx5 bucket edges.
_EDGES = st.tuples(st.integers(-2000, 4000), st.sampled_from((-1, 0, 1))).map(
    lambda kd: float(
        np.nextafter((kd[0] * 10 + 5) / 1000.0, np.inf * kd[1])
        if kd[1]
        else (kd[0] * 10 + 5) / 1000.0
    )
)


class TestScalarFrameSuccess:
    @given(snr=st.floats(-20.0, 40.0) | _EDGES)
    @example(snr=-0.004)  # rounds to -0.0, the sign Python's round drops
    @example(snr=0.285)
    def test_scalar_matches_the_array_path_bit_for_bit(self, snr):
        scalar = _SCALAR.frame_success(snr)
        array = _ARRAY.frame_success_from_snr_db(np.array([snr]))[0]
        assert isinstance(scalar, float)
        assert scalar.hex() == float(array).hex()


def _reference_prices(model: LinkBudgetModel, snr_db) -> np.ndarray:
    """Cache-free pricing: one closed-form BER per ``np.round`` key.

    The array pricing as it stood before the frame-success table, with
    the per-key BER evaluated directly instead of through a cache.
    """
    flat = np.atleast_1d(np.asarray(snr_db, dtype=np.float64)).ravel()
    total_bits = model.frame_bits + 32
    keys = np.round(flat, 2)
    unique, inverse = np.unique(keys, return_inverse=True)
    unique_p = np.array(
        [
            (1.0 - model.scheme.theoretical_ber(round(float(k), 2)))
            ** total_bits
            for k in unique
        ]
    )
    return unique_p[inverse].reshape(np.shape(snr_db))


def _outcome(price, snr_db):
    """Bits, shape and type of a price, or the error it raised.

    The closed form overflows above about 3083 dB, so huge SNRs raise
    ``OverflowError``; the table must raise it too.
    """
    try:
        value = price(snr_db)
    except OverflowError:
        return OverflowError
    return [float(v).hex() for v in np.ravel(value)], np.shape(value), type(value)


#: Inputs the table window cannot hold, or that bucket oddly.
_SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e6, -1e6, 1e300, -1e300)

_SNRS = st.sampled_from(_SPECIALS) | _EDGES | st.floats(-80.0, 140.0)

_PRICE_ARGS = st.one_of(
    _SNRS.map(np.float64),
    _SNRS.map(np.array),
    st.lists(_SNRS, max_size=12).map(np.array),
    st.lists(_SNRS, min_size=6, max_size=6).map(
        lambda v: np.reshape(v, (2, 3))
    ),
    st.just(np.empty((2, 0))),
)


class TestTablePricing:
    @given(calls=st.lists(_PRICE_ARGS, min_size=1, max_size=8))
    @example(calls=[np.array([0.285, -0.004, np.nan, -np.inf, np.inf])])
    @example(calls=[np.array(1e6), np.array([2.0, 1e6]), np.array([2.0])])
    @settings(deadline=None)
    def test_prices_equal_the_reference_bit_for_bit(self, calls):
        model = _model()  # one model: table fill order follows the calls
        reference = functools.partial(_reference_prices, model)
        for snr_db in calls:
            got = _outcome(model.frame_success_from_snr_db, snr_db)
            assert got == _outcome(reference, snr_db), snr_db
            for snr in np.ravel(snr_db):
                scalar = _outcome(model.frame_success, float(snr))
                want = _outcome(reference, snr)
                if want is OverflowError:
                    assert scalar is OverflowError, snr
                else:
                    assert scalar[:2] == want[:2] and scalar[2] is float, snr


#: Four APs on an 8 m pitch: a 16 m square block.
_GEOMETRY = Deployment(
    MultiAPConfig(grid_rows=2, grid_cols=2, ap_spacing_m=8.0, num_tags=0)
)

_COORD = st.floats(0.25, 15.75)

_TAGS = 24

#: One epoch's move: who moves ("some" picks by mask, "back" returns
#: the picked tags to an earlier epoch's coordinates), where the movers
#: go, and which coordinates they change.
_MOVE = st.tuples(
    st.sampled_from(("none", "some", "all", "back")),
    st.lists(st.booleans(), min_size=_TAGS, max_size=_TAGS),
    st.lists(st.tuples(_COORD, _COORD), min_size=_TAGS, max_size=_TAGS),
    st.lists(st.sampled_from(("x", "y", "xy")), min_size=_TAGS, max_size=_TAGS),
    st.integers(0, 6),
)


def _assert_priced_from_scratch(pop: MetroTagPopulation, shared) -> None:
    n = len(pop)
    distances = _GEOMETRY.distances_to_aps(pop.x_m[:n], pop.y_m[:n])
    snr = _GEOMETRY.snr_from_distances(distances)
    assert shared.distances.shape == shared.snr.shape == distances.shape
    assert shared.distances.tobytes() == distances.tobytes()
    assert shared.snr.tobytes() == snr.tobytes()


class TestIncrementalGeometry:
    @given(
        start=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=_TAGS),
        moves=st.lists(_MOVE, min_size=1, max_size=6),
    )
    @settings(deadline=None)
    def test_matrices_equal_a_from_scratch_pricing(self, start, moves):
        n = len(start)
        xy = np.array(start)
        pop = MetroTagPopulation()
        pop.add_at(xy[:, 0], xy[:, 1], np.zeros(n, dtype=bool), 0.0)
        sim = Simulator(0)
        shared = _EpochShared()
        sim.add_process(
            AssociationProcess(
                pop, _GEOMETRY, shared, n_epochs=len(moves) + 1, epoch_dt_s=1.0
            )
        ).start()
        sim.run(until=0.0)
        _assert_priced_from_scratch(pop, shared)
        history = [xy]
        for epoch, (kind, pick, dest, axes, back) in enumerate(moves, start=1):
            movers = {"none": [], "all": range(n)}.get(
                kind, np.flatnonzero(pick[:n])
            )
            target = (
                history[back % len(history)] if kind == "back" else dest
            )
            for i in movers:
                if "x" in axes[i]:
                    pop.x_m[i] = target[i][0]
                if "y" in axes[i]:
                    pop.y_m[i] = target[i][1]
            history.append(np.column_stack((pop.x_m[:n], pop.y_m[:n])))
            sim.run(until=float(epoch))
            _assert_priced_from_scratch(pop, shared)
