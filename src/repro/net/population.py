"""Structure-of-arrays tag population for 100k-scale MAC simulation.

One Python object per tag would put ~100k dict lookups in every slot;
:class:`TagPopulation` instead keeps the per-tag state in parallel
numpy arrays (amortised-doubling growth) so the MAC processes operate
on whole populations with vectorised draws.  Tag ids are assigned
sequentially at arrival, so array order == id order == arrival order —
the deterministic iteration order every protocol draws in.

The population records everything the report needs: per-tag delivered
bits (goodput + Jain fairness), arrival/read/departure timestamps
(latency + time-to-full-inventory), and the link-budget success
probabilities computed once at arrival by
:class:`~repro.net.link_model.LinkBudgetModel`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TagPopulation", "jain_fairness"]


def jain_fairness(values: np.ndarray | list[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    Edge cases (shared contract with
    :meth:`repro.core.network.InventoryResult.jain_fairness`): an empty
    population has no allocation to judge — **0.0**; an all-equal
    allocation (including all-zero: everyone equally starved) is
    perfectly fair — **1.0**.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    squares = float(np.dot(arr, arr))
    if squares == 0.0:
        return 1.0
    total = float(arr.sum())
    return total * total / (arr.size * squares)


class TagPopulation:
    """Parallel per-tag state arrays with amortised growth, plus the
    ``unread_active`` count of active, not-yet-read tags (O(1) drain
    checks).

    Subclasses (e.g. the metro-scale population in
    :mod:`repro.net.deployment`) extend :attr:`_ARRAYS` with their own
    ``(name, dtype, fill)`` triples and allocate them in ``__init__``;
    :meth:`_ensure_capacity` grows every registered array uniformly.
    """

    _INITIAL_CAPACITY = 1024

    #: (attribute, dtype, fill-value-for-grown-tail) of every per-tag array.
    _ARRAYS: tuple[tuple[str, object, object], ...] = (
        ("distance_m", np.float64, 0.0),
        ("angle_deg", np.float64, 0.0),
        ("clear_success_p", np.float64, 0.0),
        ("blocked_success_p", np.float64, 0.0),
        ("active", bool, False),
        ("read", bool, False),
        ("arrival_s", np.float64, 0.0),
        ("departure_s", np.float64, np.nan),
        ("read_s", np.float64, np.nan),
        ("delivered_bits", np.int64, 0),
        ("frames_delivered", np.int64, 0),
    )

    def __init__(self, expected_tags: int = 0) -> None:
        """``expected_tags`` sizes the initial allocation up front.

        At million-tag scale the amortised-doubling growth path would
        otherwise copy every registered SoA array ~10 times during
        warm-up churn; a capacity hint makes deployment a single
        allocation.  The hint is a floor, not a cap — growth past it
        still doubles as usual.
        """
        if expected_tags < 0:
            raise ValueError(f"expected_tags must be >= 0, got {expected_tags}")
        cap = self._INITIAL_CAPACITY
        while cap < expected_tags:
            cap *= 2
        self._n = 0
        for name, dtype, fill in self._ARRAYS:
            setattr(self, name, np.full(cap, fill, dtype=dtype))
        self.arrivals = 0
        self.departures = 0
        #: ``active_unread_ids().size``, kept by every lifecycle and
        #: outcome method so drain checks cost O(1), not O(population).
        self.unread_active = 0

    def __len__(self) -> int:
        """Total tags ever deployed (active + departed)."""
        return self._n

    # -- growth ---------------------------------------------------------------

    def _ensure_capacity(self, needed: int) -> None:
        cap = getattr(self, self._ARRAYS[0][0]).size
        if needed <= cap:
            return
        new_cap = cap
        while new_cap < needed:
            new_cap *= 2
        for name, dtype, fill in self._ARRAYS:
            old = getattr(self, name)
            grown = np.empty(new_cap, dtype=dtype)
            grown[: old.size] = old
            grown[old.size :] = fill
            setattr(self, name, grown)

    # -- lifecycle ------------------------------------------------------------

    def add(
        self,
        distances_m: np.ndarray,
        angles_deg: np.ndarray,
        clear_success_p: np.ndarray,
        blocked_success_p: np.ndarray,
        time_s: float,
    ) -> np.ndarray:
        """Deploy a batch of tags; returns their (sequential) ids."""
        distances_m = np.atleast_1d(np.asarray(distances_m, dtype=np.float64))
        n = distances_m.size
        if n == 0:
            return np.empty(0, dtype=np.int64)
        ids = np.arange(self._n, self._n + n, dtype=np.int64)
        self._ensure_capacity(self._n + n)
        sl = slice(self._n, self._n + n)
        self.distance_m[sl] = distances_m
        self.angle_deg[sl] = np.atleast_1d(angles_deg)
        self.clear_success_p[sl] = np.atleast_1d(clear_success_p)
        self.blocked_success_p[sl] = np.atleast_1d(blocked_success_p)
        self.active[sl] = True
        self.read[sl] = False
        self.arrival_s[sl] = time_s
        self._n += n
        self.arrivals += n
        self.unread_active += n
        return ids

    def depart(self, tag_id: int, time_s: float) -> bool:
        """Remove one tag from the air; False if it already left."""
        if not self.active[tag_id]:
            return False
        self.active[tag_id] = False
        self.departure_s[tag_id] = time_s
        self.departures += 1
        if not self.read[tag_id]:
            self.unread_active -= 1
        return True

    # -- views (id order == array order == arrival order) ---------------------

    def active_ids(self) -> np.ndarray:
        """Ids of tags currently on the air, ascending."""
        return np.flatnonzero(self.active[: self._n])

    def active_unread_ids(self) -> np.ndarray:
        """Active tags not yet read/discovered, ascending id order."""
        live = self.active[: self._n] & ~self.read[: self._n]
        return np.flatnonzero(live)

    def success_p(self, ids: np.ndarray, blocked: bool) -> np.ndarray:
        """Per-slot frame-success probability for ``ids``."""
        src = self.blocked_success_p if blocked else self.clear_success_p
        return src[ids]

    # -- outcomes -------------------------------------------------------------

    def record_read(self, tag_id: int, bits: int, time_s: float) -> None:
        """A frame from ``tag_id`` was delivered this slot."""
        self.delivered_bits[tag_id] += bits
        self.frames_delivered[tag_id] += 1
        if not self.read[tag_id]:
            self.read[tag_id] = True
            self.read_s[tag_id] = time_s
            if self.active[tag_id]:
                self.unread_active -= 1

    def record_reads(self, ids: np.ndarray, bits: int, time_s: float) -> None:
        """Vectorised :meth:`record_read` for concurrent (FDMA) slots.

        ``ids`` must be distinct: one frame per tag per slot.
        """
        if ids.size == 0:
            return
        self.delivered_bits[ids] += bits
        self.frames_delivered[ids] += 1
        fresh = ids[~self.read[ids]]
        self.read[fresh] = True
        self.read_s[fresh] = time_s
        self.unread_active -= int(np.count_nonzero(self.active[fresh]))

    # -- metrics --------------------------------------------------------------

    def latencies_s(self) -> np.ndarray:
        """Arrival-to-first-read latency of every read tag."""
        read = self.read[: self._n]
        return self.read_s[: self._n][read] - self.arrival_s[: self._n][read]

    def fairness(self) -> float:
        """Jain fairness over delivered bits of every tag ever deployed."""
        return jain_fairness(self.delivered_bits[: self._n])
