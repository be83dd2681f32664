"""Network-layer processes: AP MAC modes, population churn, blockage.

Everything here runs on the :mod:`repro.net.engine` substrate and
operates on a shared :class:`~repro.net.population.TagPopulation`.
Three MAC modes mirror the analytic protocols the repo already has —
now time-aware, churn-aware, and blockage-aware:

* :class:`SlottedAlohaMac` — slotted-ALOHA discovery (or saturated
  "persistent" ALOHA for offered-load studies: throughput must peak at
  ``G = 1`` with value ``1/e``, the textbook sanity anchor E20 pins);
* :class:`QInventoryMac` — framed-ALOHA inventory driven by the *same*
  :class:`~repro.core.inventory.QAlgorithm` controller the per-tag
  state machine in :mod:`repro.core.inventory` uses.  The tag side is
  vectorised (one ``integers(0, 2^Q)`` draw per unread tag per round,
  in ascending id order) so 100k-tag rounds stay array-speed, but the
  per-slot IDLE/SINGLE/COLLISION observation and the controller update
  are slot-exact, identical to ``InventorySession.run_round``;
* :class:`FdmaMac` — concurrent subcarrier groups: each slot one
  round-robin group of tags backscatters simultaneously on the
  harmonic-safe :class:`~repro.core.network.FdmaPlan` grid, each frame
  drawing success independently from its own link budget.

Support processes:

* :class:`ChurnProcess` — Poisson tag arrivals and exponential dwell
  times; each arriving tag gets link-budget success probabilities from
  the :class:`~repro.net.link_model.LinkBudgetModel` and a scheduled
  departure event (the per-tag lifecycle lives in the event queue);
* :class:`BlockageProcess` — outage windows generated by the existing
  :func:`repro.sim.faults.blockage_burst_plan` and wrapped in the
  existing :class:`~repro.sim.faults.BlockageFrameOracle`; the process
  schedules start/stop toggle events so the MAC's per-slot blocked
  query is O(1) while remaining exactly the oracle's window set;
* :class:`SpotCheckProcess` — every N slots, run a real waveform burst
  (:func:`~repro.core.link.simulate_link`) at a sampled tag's operating
  point, auditing the analytic per-slot success model against the
  substrate it abstracts.

Every process draws only from its own engine-assigned RNG stream, in a
documented order (array order == ascending tag id), so runs are
byte-reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.core.inventory import QAlgorithm, SlotOutcome
from repro.net.engine import Process
from repro.net.link_model import LinkBudgetModel, SpotCheck
from repro.net.population import TagPopulation
from repro.sim.faults import BlockageFrameOracle, blockage_burst_plan

__all__ = [
    "ChurnProcess",
    "BlockageProcess",
    "MacProcess",
    "SlottedAlohaMac",
    "QInventoryMac",
    "FdmaMac",
    "SpotCheckProcess",
]


class ChurnProcess(Process):
    """Population dynamics: Poisson arrivals, exponential dwell times.

    Each tag's lifecycle is event-driven: an arrival event deploys it
    (drawing its geometry and link-budget success probabilities), and —
    when ``mean_dwell_s`` is set — a departure event removes it.  RNG
    order per batch: distances, then angles, then dwell times.
    """

    def __init__(
        self,
        population: TagPopulation,
        link_model: LinkBudgetModel,
        *,
        arrival_rate_hz: float = 0.0,
        mean_dwell_s: float | None = None,
        min_distance_m: float = 1.5,
        max_distance_m: float = 6.0,
        angle_spread_deg: float = 0.0,
        blockage_attenuation_db: float = 20.0,
        horizon_s: float = float("inf"),
    ) -> None:
        super().__init__("churn")
        self.population = population
        self.link_model = link_model
        self.arrival_rate_hz = arrival_rate_hz
        self.mean_dwell_s = mean_dwell_s
        self.min_distance_m = min_distance_m
        self.max_distance_m = max_distance_m
        self.angle_spread_deg = angle_spread_deg
        self.blockage_attenuation_db = blockage_attenuation_db
        self.horizon_s = horizon_s

    def deploy(self, count: int) -> np.ndarray:
        """Deploy ``count`` tags now; returns their ids (ascending)."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        assert self.rng is not None
        distances = self.rng.uniform(
            self.min_distance_m, self.max_distance_m, size=count
        )
        spread = self.angle_spread_deg
        angles = self.rng.uniform(-spread, spread, size=count)
        clear_p = self.link_model.frame_success_probability(distances, angles)
        blocked_p = self.link_model.frame_success_probability(
            distances, angles, extra_attenuation_db=self.blockage_attenuation_db
        )
        ids = self.population.add(
            distances, angles, clear_p, blocked_p, self.now if self.sim else 0.0
        )
        if self.mean_dwell_s is not None:
            dwells = self.rng.exponential(self.mean_dwell_s, size=count)
            for tag_id, dwell in zip(ids, dwells):
                self.schedule(
                    float(dwell), lambda t=int(tag_id): self._on_departure(t)
                )
        self.trace("arrive", count=int(count), first_id=int(ids[0]))
        return ids

    def start(self) -> None:
        if self.arrival_rate_hz > 0:
            self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        assert self.rng is not None
        gap = float(self.rng.exponential(1.0 / self.arrival_rate_hz))
        if self.now + gap >= self.horizon_s:
            return  # no more arrivals inside the simulated window
        self.schedule(gap, self._on_arrival)

    def _on_arrival(self) -> None:
        self.deploy(1)
        self._schedule_next_arrival()

    def _on_departure(self, tag_id: int) -> None:
        if self.population.depart(tag_id, self.now):
            self.trace("depart", tag=int(tag_id))


class BlockageProcess(Process):
    """Blockage outages as engine events, generated by the fault layer.

    Windows come from :func:`~repro.sim.faults.blockage_burst_plan`
    (driven by this process's own stream) and are wrapped in a
    :class:`~repro.sim.faults.BlockageFrameOracle` — the same machinery
    the ARQ chaos experiments use.  Start/stop toggles keep a depth
    counter so :meth:`is_blocked` is O(1) per slot; the counter is, by
    construction, exactly ``oracle.is_blocked_at`` evaluated at the
    query time.

    Stream layout: this process owns exactly one engine stream, drawn
    dry at :meth:`start` (the whole window plan is generated up front).
    In the single-AP stack it is registration slot 2 of 4
    (churn, **blockage**, mac, spotcheck); in the multi-AP metro stack
    it is slot 4 of the five process streams (mobility, assoc, relay,
    **blockage**, mac) that precede the per-AP MAC streams.
    """

    def __init__(
        self,
        *,
        rate_hz: float = 0.0,
        mean_duration_s: float = 0.05,
        attenuation_db: float = 20.0,
        slot_s: float,
        horizon_s: float,
    ) -> None:
        super().__init__("blockage")
        self.rate_hz = rate_hz
        self.mean_duration_s = mean_duration_s
        self.attenuation_db = attenuation_db
        self.slot_s = slot_s
        self.horizon_s = horizon_s
        self.oracle: BlockageFrameOracle | None = None
        self._depth = 0

    def start(self) -> None:
        assert self.rng is not None and self.sim is not None
        events = []
        if self.rate_hz > 0 and self.horizon_s > 0:
            events = blockage_burst_plan(
                duration_s=self.horizon_s,
                rate_hz=self.rate_hz,
                mean_duration_s=self.mean_duration_s,
                attenuation_db=self.attenuation_db,
                seed=self.rng,
            )
        self.oracle = BlockageFrameOracle(
            events, frame_duration_s=self.slot_s
        )
        for event in events:
            self.sim.schedule_at(
                event.start_s, self._on_start, process=self.name
            )
            self.sim.schedule_at(event.stop_s, self._on_stop, process=self.name)

    def _on_start(self) -> None:
        self._depth += 1
        if self._depth == 1:
            self.trace("outage_start")

    def _on_stop(self) -> None:
        self._depth -= 1
        if self._depth == 0:
            self.trace("outage_stop")

    def is_blocked(self, _time_s: float | None = None) -> bool:
        """Whether an outage covers the current instant (O(1))."""
        return self._depth > 0


class MacProcess(Process):
    """Base slot-driven AP process: clocking, counters, early stop."""

    def __init__(
        self,
        name: str,
        population: TagPopulation,
        blockage: BlockageProcess,
        *,
        num_slots: int,
        slot_s: float,
        frame_bits: int,
        stop_when_drained: bool = True,
    ) -> None:
        super().__init__(name)
        self.population = population
        self.blockage = blockage
        self.num_slots = num_slots
        self.slot_s = slot_s
        self.frame_bits = frame_bits
        self.stop_when_drained = stop_when_drained
        self.slots_run = 0
        self.slots_idle = 0
        self.slots_single = 0
        self.slots_collision = 0
        self.blocked_slots = 0
        self.reads_failed_channel = 0
        self.frames_delivered = 0
        self.offered_sum = 0.0
        self.finished = False
        #: Optional ``hook(tag_id, slot)`` invoked on every delivered
        #: frame.  The scenario layer's sensing process subscribes here;
        #: the hook must not draw from the MAC's stream (subscribers
        #: own their own process stream), so registering one never
        #: perturbs the MAC's draw sequence.
        self.read_hook = None

    def start(self) -> None:
        if self.num_slots > 0:
            self.schedule(0.0, self._slot_event)

    def _slot_event(self) -> None:
        blocked = self.blockage.is_blocked()
        if blocked:
            self.blocked_slots += 1
        self.on_slot(self.slots_run, blocked)
        self.slots_run += 1
        if self.slots_run >= self.num_slots or self.finished:
            return
        if self.stop_when_drained and self._drained():
            self.finished = True
            self.trace("drained", slot=int(self.slots_run))
            return
        self.schedule(self.slot_s, self._slot_event)

    def _drained(self) -> bool:
        """No active tag is left unread: stop clocking slots.

        Pending churn arrivals are not consulted, so a run whose
        current cohort is fully read stops even if more tags are
        scheduled to arrive.  O(1): the population keeps the count.
        """
        return self.population.unread_active == 0

    def _success_p(self, tag_id: int, blocked: bool) -> float:
        src = (
            self.population.blocked_success_p
            if blocked
            else self.population.clear_success_p
        )
        return float(src[tag_id])

    def _count(self, outcome: SlotOutcome) -> None:
        if outcome is SlotOutcome.IDLE:
            self.slots_idle += 1
        elif outcome is SlotOutcome.SINGLE:
            self.slots_single += 1
        else:
            self.slots_collision += 1

    def on_slot(self, slot: int, blocked: bool) -> None:
        raise NotImplementedError


class SlottedAlohaMac(MacProcess):
    """Slotted ALOHA: contenders transmit w.p. ``p``; singles get read.

    ``transmit_probability=None`` uses the throughput-optimal adaptive
    setting ``1 / backlog`` (matching
    :meth:`~repro.core.network.MmTagNetwork.slotted_aloha_discovery`);
    a fixed value models a dumb fixed-frame deployment.  With
    ``persistent=True`` every active tag always has traffic and stays
    in contention after success — the saturated regime whose throughput
    is ``G e^-G`` (peak ``1/e`` at ``G = 1``).

    ``strategy`` swaps the arbitration rule for a
    :class:`~repro.net.scenario.backoff.BackoffStrategy` (the scenario
    zoo's pluggable slot).  The slot is draw-count-stable: every
    strategy consumes exactly one uniform per contender per slot from
    this process's stream, in ascending id order, plus the lone
    responder's success draw — so ``strategy=None`` (the seed path) and
    the ``"adaptive-p"`` strategy object produce byte-identical runs,
    and swapping strategies never shifts any other process's stream.
    """

    def __init__(
        self,
        population: TagPopulation,
        blockage: BlockageProcess,
        *,
        num_slots: int,
        slot_s: float,
        frame_bits: int,
        transmit_probability: float | None = None,
        persistent: bool = False,
        stop_when_drained: bool = True,
        strategy=None,
    ) -> None:
        super().__init__(
            "ap/aloha",
            population,
            blockage,
            num_slots=num_slots,
            slot_s=slot_s,
            frame_bits=frame_bits,
            stop_when_drained=stop_when_drained and not persistent,
        )
        if strategy is not None and transmit_probability is not None:
            raise ValueError(
                "transmit_probability and strategy are mutually exclusive; "
                "use AdaptivePStrategy(transmit_probability=...) instead"
            )
        self.transmit_probability = transmit_probability
        self.persistent = persistent
        self.strategy = strategy

    def on_slot(self, slot: int, blocked: bool) -> None:
        assert self.rng is not None
        if self.persistent:
            ids = self.population.active_ids()
        else:
            ids = self.population.active_unread_ids()
        if ids.size == 0:
            self.slots_idle += 1
            return
        if self.strategy is None:
            p = (
                self.transmit_probability
                if self.transmit_probability is not None
                else 1.0 / ids.size
            )
        else:
            p = self.strategy.transmit_probabilities(ids, slot)
        if isinstance(p, float):
            # Scalar path: the seed's exact arithmetic (adaptive-p and
            # the scalar strategies ride it bit-for-bit).
            self.offered_sum += ids.size * p
        else:
            self.offered_sum += float(p.sum())
        responders = ids[self.rng.random(ids.size) < p]
        if responders.size == 0:
            self._count(SlotOutcome.IDLE)
            if self.strategy is not None:
                self.strategy.observe_slot(responders, None)
            return
        if responders.size > 1:
            self._count(SlotOutcome.COLLISION)
            if self.strategy is not None:
                self.strategy.observe_slot(responders, False)
            return
        self._count(SlotOutcome.SINGLE)
        tag_id = int(responders[0])
        if self.rng.random() < self._success_p(tag_id, blocked):
            self.population.record_read(tag_id, self.frame_bits, self.now)
            self.frames_delivered += 1
            self.trace("read", tag=tag_id, slot=int(slot))
            delivered = True
            if self.read_hook is not None:
                self.read_hook(tag_id, slot)
        else:
            self.reads_failed_channel += 1
            delivered = False
        if self.strategy is not None:
            self.strategy.observe_slot(responders, delivered)


class QInventoryMac(MacProcess):
    """Framed-ALOHA inventory under the Gen2 ``QAlgorithm`` controller.

    Round structure matches
    :meth:`repro.core.inventory.InventorySession.run_round`: the AP
    announces ``2^Q`` slots, every unread tag picks one uniformly, and
    per slot the controller observes IDLE / SINGLE / COLLISION.  The
    per-tag slot choices are drawn as one vectorised ``integers`` call
    in ascending id order; reply-time channel draws happen in slot
    order.  Tags arriving mid-round join at the next Query; tags
    departing mid-round leave their slot idle.
    """

    def __init__(
        self,
        population: TagPopulation,
        blockage: BlockageProcess,
        *,
        num_slots: int,
        slot_s: float,
        frame_bits: int,
        q_initial: float = 4.0,
        stop_when_drained: bool = True,
    ) -> None:
        super().__init__(
            "ap/inventory",
            population,
            blockage,
            num_slots=num_slots,
            slot_s=slot_s,
            frame_bits=frame_bits,
            stop_when_drained=stop_when_drained,
        )
        self.controller = QAlgorithm(q_float=q_initial)
        self.rounds = 0
        self._round_counts: np.ndarray | None = None
        self._round_slot_tag: np.ndarray | None = None
        self._round_index = 0

    def _begin_round(self) -> None:
        assert self.rng is not None
        q = self.controller.q
        n_slots = 2**q
        unread = self.population.active_unread_ids()
        counts = np.zeros(n_slots, dtype=np.int64)
        slot_tag = np.full(n_slots, -1, dtype=np.int64)
        if unread.size:
            draws = self.rng.integers(0, n_slots, size=unread.size)
            counts = np.bincount(draws, minlength=n_slots)
            # For count==1 slots exactly one write lands, so the value
            # is that slot's unique replier; other slots are ignored.
            slot_tag[draws] = unread
        self._round_counts = counts
        self._round_slot_tag = slot_tag
        self._round_index = 0
        self.rounds += 1
        self.trace("round", q=int(q), unread=int(unread.size))

    def on_slot(self, slot: int, blocked: bool) -> None:
        assert self.rng is not None
        if self._round_counts is None or self._round_index >= self._round_counts.size:
            self._begin_round()
        assert self._round_counts is not None and self._round_slot_tag is not None
        k = self._round_index
        self._round_index += 1
        count = int(self._round_counts[k])
        if count == 0:
            outcome = SlotOutcome.IDLE
        elif count > 1:
            outcome = SlotOutcome.COLLISION
        else:
            tag_id = int(self._round_slot_tag[k])
            if not self.population.active[tag_id]:
                outcome = SlotOutcome.IDLE  # departed mid-round
            else:
                outcome = SlotOutcome.SINGLE
                if self.rng.random() < self._success_p(tag_id, blocked):
                    self.population.record_read(
                        tag_id, self.frame_bits, self.now
                    )
                    self.frames_delivered += 1
                    self.trace("read", tag=tag_id, slot=int(slot))
                else:
                    self.reads_failed_channel += 1
        self._count(outcome)
        self.controller.update(outcome)


class FdmaMac(MacProcess):
    """Concurrent subcarrier groups, round-robin over the population.

    Each slot, one group of up to ``group_size`` active tags (chunked
    in ascending id order) backscatters simultaneously on distinct
    subcarriers; every frame draws success independently from its own
    link budget.  This is E7's concurrent mode lifted to the event
    engine — aggregate goodput scales with the group size until the
    per-tag budget, not the MAC, is the limit.
    """

    def __init__(
        self,
        population: TagPopulation,
        blockage: BlockageProcess,
        *,
        num_slots: int,
        slot_s: float,
        frame_bits: int,
        group_size: int = 8,
        stop_when_drained: bool = True,
    ) -> None:
        super().__init__(
            "ap/fdma",
            population,
            blockage,
            num_slots=num_slots,
            slot_s=slot_s,
            frame_bits=frame_bits,
            # FDMA serves traffic continuously; "drained" never applies.
            stop_when_drained=False,
        )
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        self.group_size = group_size

    def on_slot(self, slot: int, blocked: bool) -> None:
        assert self.rng is not None
        ids = self.population.active_ids()
        if ids.size == 0:
            self.slots_idle += 1
            return
        n_groups = -(-ids.size // self.group_size)  # ceil
        k = slot % n_groups
        group = ids[k * self.group_size : (k + 1) * self.group_size]
        probs = self.population.success_p(group, blocked)
        ok = self.rng.random(group.size) < probs
        delivered = group[ok]
        self.population.record_reads(delivered, self.frame_bits, self.now)
        self.frames_delivered += int(delivered.size)
        self.reads_failed_channel += int(group.size - delivered.size)
        self._count(
            SlotOutcome.SINGLE if delivered.size else SlotOutcome.IDLE
        )


class SpotCheckProcess(Process):
    """Waveform-level audits of the analytic slot model.

    Every ``every`` slots, samples one active tag (own stream — the
    MAC's draws are untouched) and runs a full
    :func:`~repro.core.link.simulate_link` burst at its operating
    point.  The report carries the modeled success probability next to
    the measured frame outcome, anchoring the MAC abstraction to the
    waveform substrate it summarises.
    """

    def __init__(
        self,
        population: TagPopulation,
        link_model: LinkBudgetModel,
        *,
        every: int = 0,
        num_slots: int = 0,
        slot_s: float = 0.0,
    ) -> None:
        super().__init__("spotcheck")
        if every < 0:
            raise ValueError(f"every must be >= 0, got {every}")
        self.population = population
        self.link_model = link_model
        self.every = every
        self.num_slots = num_slots
        self.slot_s = slot_s
        self.checks: list[SpotCheck] = []

    def start(self) -> None:
        assert self.sim is not None
        if self.every <= 0:
            return
        for slot in range(0, self.num_slots, self.every):
            self.sim.schedule_at(
                slot * self.slot_s,
                lambda s=slot: self._check(s),
                process=self.name,
            )

    def _check(self, slot: int) -> None:
        assert self.rng is not None
        ids = self.population.active_ids()
        if ids.size == 0:
            return
        tag_id = int(ids[int(self.rng.integers(ids.size))])
        check = self.link_model.spot_check(
            slot,
            tag_id,
            float(self.population.distance_m[tag_id]),
            float(self.population.angle_deg[tag_id]),
            self.rng,
        )
        self.checks.append(check)
        self.trace(
            "spotcheck",
            slot=int(slot),
            tag=tag_id,
            modeled=float(check.modeled_success_prob),
            success=bool(check.frame_success),
        )
