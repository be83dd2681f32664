"""Property-based tests (hypothesis) for the metro hot path's O(1)
bookkeeping.

Two shortcuts replace array work on every slot or handoff, and each must
agree exactly with the array computation it stands in for:

* :attr:`TagPopulation.unread_active` is the drain check's counter; it
  must equal ``active_unread_ids().size`` after any interleaving of
  arrivals, departures (of read and unread tags) and reads, and never
  go negative.
* :meth:`LinkBudgetModel.frame_success` prices one SNR; it must return
  the array path's bucket value bit for bit, including at the x.xx5
  bucket edges where ``np.round`` and Python's ``round`` disagree.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.channel.environment import Environment
from repro.core.ap import APConfig
from repro.core.tag import TagConfig
from repro.net import LinkBudgetModel, TagPopulation

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


#: Separate models, so each path fills its own BER cache: a key mismatch
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
