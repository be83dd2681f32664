"""Sharded metro execution: byte-identical to serial, on many cores.

:func:`repro.net.deployment.run_multi_ap` is single-threaded; its MAC
inner loop dominates the wall clock at million-tag scale (every AP
activation draws one uniform per contender of the polled cell).  This
module runs the *same* simulation partitioned across worker processes
and reproduces the serial run **bit for bit** — same report pickle,
same event-trace digest — for any shard count.

Why this is possible without locks or clock synchronisation:

* **Per-AP RNG streams.**  Each AP of the grid draws from its own
  generator (spawned off the root :class:`~numpy.random.SeedSequence`
  in a fixed order by ``_build_metro``), so the draw sequence of one
  cell is independent of every other cell's backlog.  A worker that
  owns a subset of APs can replicate those cells' draws exactly,
  anywhere, as long as it carries the generators' states.
* **Epoch-synchronised cross-shard state.**  All cross-cell coupling —
  mobility, association/handoff, relay routing, interference — lands
  at epoch boundaries (plus handoff commits whose apply slots are
  fixed once the epoch's geometry is known), and the serial MAC only
  *removes* tags from a cell's contender list between rebuilds.  So a
  cell's entire slot-by-slot behaviour inside one epoch is a pure
  function of (contender snapshot, commit schedule, blockage windows,
  RNG state) — all known up front.

The run happens in three passes:

1. **Plan** (serial, cheap): run the real engine with a recording MAC
   that never draws — it snapshots each epoch's contender partition and
   effective success probabilities, logs every handoff commit's apply
   slot, and captures the per-slot blockage mask.
2. **Execute** (parallel): for each epoch, partition the APs over
   shards (greedy LPT on backlog so shards that drained ahead get work
   stolen from loaded ones), and dispatch one
   :class:`_ShardEpochTask` point per shard on the existing
   :class:`~repro.sim.executor.SweepExecutor` — inheriting its process
   pool, per-epoch checkpointing (:mod:`repro.sim.checkpoint`),
   seeded-retry recovery, and pool→serial degradation.  Workers
   replicate the serial draw sequence for their APs and return compact
   outcome records plus their advanced RNG states.
3. **Replay** (serial, output-sized): run the real engine once more
   with a MAC that consumes the merged records instead of drawing.
   Every ``schedule()``/``record()`` call happens in the serial order,
   so the trace digest, the report, and all counters come out
   byte-identical — and the replay's per-slot cost is O(records), not
   O(backlog).

Serial and the workers share the same per-slot bookkeeping (an O(1)
drain counter, cell lists re-filtered only after a read or a handoff
commit touched them), so the only per-slot work the sharded path
saves is the contender draw itself, which the replay skips; any
speedup over serial comes from running the workers in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.net.deployment import (
    AssociationProcess,
    MultiAPConfig,
    MultiAPReport,
    MultiApAlohaMac,
    _build_metro,
    _finalize_metro,
    _run_metro,
)
from repro.core.inventory import SlotOutcome
from repro.net.engine import Simulator
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.executor import SweepExecutor, SweepTask

__all__ = [
    "run_multi_ap_sharded",
    "ShardEpochTask",
]

#: Compact outcome codes shipped from workers to the replay pass.  A
#: missing record for an (AP, slot) means the cell's contender list was
#: empty (serial counts it idle without drawing).
_IDLE, _COLLISION, _SINGLE_FAIL, _SINGLE_OK = 0, 1, 2, 3

#: Streams consumed by process registration before the per-AP streams
#: start (mobility, assoc, relay, blockage, mac) — see ``_build_metro``.
_N_PROCESS_STREAMS = 5


def _fresh_seedseq(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    """An unshared copy of ``seed`` with an untouched spawn counter.

    The planner simulator, the replay simulator, and the coordinator's
    per-AP stream reconstruction each spawn children off the root; they
    must all see the same spawn sequence the serial reference does, so
    each gets its own copy instead of sharing one mutating counter.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=seed.entropy,
            spawn_key=seed.spawn_key,
            pool_size=seed.pool_size,
        )
    return np.random.SeedSequence(int(seed))


# -- pass 1: the plan ---------------------------------------------------------


class _PlannerMac(MultiApAlohaMac):
    """Stand-in MAC for the planning pass: records, never draws.

    At each contender-list rebuild (the relay process's version bump,
    exactly where the serial MAC rebuilds) it snapshots the epoch's
    ``mac_ap`` partition and effective success probabilities; per slot
    it records the blockage flag.  It never drains, because the epoch
    layer's behaviour is read-independent and the plan must cover the
    full horizon regardless of when the serial MAC stops.
    """

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self.epoch_starts: list[int] = []
        self.epoch_mac_ap: list[np.ndarray] = []
        self.epoch_eff_clear: list[np.ndarray] = []
        self.epoch_eff_blocked: list[np.ndarray] = []
        self.blocked_mask = np.zeros(self.num_slots, dtype=bool)
        self.commit_log: list[tuple[int, int, int]] = []

    def _drained(self) -> bool:
        return False

    def on_slot(self, slot: int, blocked: bool) -> None:
        if self._lists_version != self.shared.version:
            self._lists_version = self.shared.version
            pop = self.population
            n = len(pop)
            self.epoch_starts.append(int(slot))
            self.epoch_mac_ap.append(pop.mac_ap[:n].copy())
            self.epoch_eff_clear.append(pop.eff_clear_p[:n].copy())
            self.epoch_eff_blocked.append(pop.eff_blocked_p[:n].copy())
        self.blocked_mask[slot] = blocked


class _PlannerAssoc(AssociationProcess):
    """Association process that logs each commit's apply slot.

    ``planner_mac.slots_run`` at commit time is the first slot the new
    state can influence: a commit dispatched before slot *k*'s event
    (same timestamp, smaller seq) records *k*; one dispatched after it
    records *k + 1*.  Commits that land at an epoch boundary run before
    that epoch's relay rewrite, so they are already absorbed into the
    epoch snapshot and are recognisable by ``apply_slot == start``.
    """

    planner_mac: _PlannerMac | None = None

    def _commit(self, tag_id: int, target: int) -> None:
        super()._commit(tag_id, target)
        mac = self.planner_mac
        assert mac is not None, "planner mac not attached"
        mac.commit_log.append(
            (
                int(mac.slots_run),
                int(tag_id),
                int(self.population.mac_ap[tag_id]),
            )
        )


@dataclass
class _MetroPlan:
    """Everything the parallel pass needs, recorded by the planner."""

    num_slots: int
    n_tags: int
    n_aps: int
    reuse_factor: int
    ap_colors: np.ndarray
    epoch_starts: list[int]
    epoch_mac_ap: list[np.ndarray]
    epoch_eff_clear: list[np.ndarray]
    epoch_eff_blocked: list[np.ndarray]
    blocked_mask: np.ndarray
    commits: list[tuple[int, int, int]]  # (apply_slot, tag, mac_ap_after)

    def epoch_bounds(self, e: int) -> tuple[int, int]:
        start = self.epoch_starts[e]
        if e + 1 < len(self.epoch_starts):
            return start, self.epoch_starts[e + 1]
        return start, self.num_slots


def _plan_metro(
    config: MultiAPConfig, seed: int | np.random.SeedSequence
) -> _MetroPlan:
    """Run the recording pass and return the execution plan."""
    sim = Simulator(seed=_fresh_seedseq(seed), trace_capacity=1)
    parts = _build_metro(
        sim, config, mac_cls=_PlannerMac, assoc_cls=_PlannerAssoc
    )
    assert isinstance(parts.mac, _PlannerMac)
    assert isinstance(parts.assoc, _PlannerAssoc)
    parts.assoc.planner_mac = parts.mac
    _run_metro(sim, parts)
    mac = parts.mac
    return _MetroPlan(
        num_slots=config.num_slots,
        n_tags=len(parts.population),
        n_aps=parts.deployment.n_aps,
        reuse_factor=config.spatial_reuse_factor,
        ap_colors=parts.deployment.reuse_color.copy(),
        epoch_starts=mac.epoch_starts,
        epoch_mac_ap=mac.epoch_mac_ap,
        epoch_eff_clear=mac.epoch_eff_clear,
        epoch_eff_blocked=mac.epoch_eff_blocked,
        blocked_mask=mac.blocked_mask,
        commits=mac.commit_log,
    )


# -- pass 2: shard workers ----------------------------------------------------


@dataclass(frozen=True)
class _ShardPayload:
    """One shard's slice of one epoch — everything a worker needs."""

    aps: tuple[int, ...]  # owned AP ids, ascending
    ap_colors: tuple[int, ...]  # reuse colour per owned AP
    reuse_factor: int
    start_slot: int
    end_slot: int
    persistent: bool
    blocked: np.ndarray  # per-slot blockage flag for the segment
    members: tuple[np.ndarray, ...]  # per owned AP: contender ids
    eff_clear: tuple[np.ndarray, ...]  # aligned success probabilities
    eff_blocked: tuple[np.ndarray, ...]
    commit_slots: tuple[np.ndarray, ...]  # per owned AP: removal slots
    commit_tags: tuple[np.ndarray, ...]
    rng_states: tuple[dict, ...]  # per owned AP: PCG64 state at start


@dataclass(frozen=True)
class _ShardResult:
    """Compact outcome stream + advanced RNG states from one worker."""

    slots: np.ndarray
    aps: np.ndarray
    kinds: np.ndarray
    tags: np.ndarray
    aps_owned: tuple[int, ...]
    rng_states: tuple[dict, ...]


def _run_shard_epoch(payload: _ShardPayload) -> _ShardResult:
    """Replicate the serial draw sequence for one shard's APs.

    Mirrors ``MultiApAlohaMac.on_slot`` exactly for each owned AP: same
    contender counts, same ``random(size)`` vector draw, same scalar
    success draw — from the same per-AP generator state the serial run
    would hold.  Commits only ever *remove* a tag from its epoch cell
    (additions wait for the next rebuild, exactly like serial), and a
    read removes the responder in non-persistent mode, so the live list
    is maintained incrementally and recompacted lazily.
    """
    states: list[dict] = []
    for k, ap in enumerate(payload.aps):
        gen = np.random.Generator(np.random.PCG64())
        gen.bit_generator.state = payload.rng_states[k]
        ids = payload.members[k]
        states.append(
            {
                "ap": int(ap),
                "rng": gen,
                "ids": ids,
                "effc": payload.eff_clear[k],
                "effb": payload.eff_blocked[k],
                "alive": np.ones(ids.size, dtype=bool),
                "read": np.zeros(ids.size, dtype=bool),
                "cslots": payload.commit_slots[k],
                "ctags": payload.commit_tags[k],
                "cptr": 0,
                "dirty": True,
                "live": None,
                "live_pos": None,
                "live_effc": None,
                "live_effb": None,
            }
        )
    by_color: dict[int, list[dict]] = {}
    for k in range(len(states)):  # ascending AP id within each colour
        by_color.setdefault(int(payload.ap_colors[k]), []).append(states[k])

    out_slots: list[int] = []
    out_aps: list[int] = []
    out_kinds: list[int] = []
    out_tags: list[int] = []
    for slot in range(payload.start_slot, payload.end_slot):
        blocked = bool(payload.blocked[slot - payload.start_slot])
        for st in by_color.get(slot % payload.reuse_factor, ()):
            cslots = st["cslots"]
            while st["cptr"] < cslots.size and cslots[st["cptr"]] <= slot:
                tag = st["ctags"][st["cptr"]]
                st["cptr"] += 1
                pos = int(np.searchsorted(st["ids"], tag))
                if (
                    pos < st["ids"].size
                    and st["ids"][pos] == tag
                    and st["alive"][pos]
                ):
                    st["alive"][pos] = False
                    st["dirty"] = True
            if st["dirty"]:
                mask = (
                    st["alive"]
                    if payload.persistent
                    else st["alive"] & ~st["read"]
                )
                pos = np.flatnonzero(mask)
                st["live"] = st["ids"][pos]
                st["live_pos"] = pos
                st["live_effc"] = st["effc"][pos]
                st["live_effb"] = st["effb"][pos]
                st["dirty"] = False
            live = st["live"]
            if live.size == 0:
                continue  # serial counts an idle AP-slot, drawing nothing
            rng = st["rng"]
            hits = np.flatnonzero(rng.random(live.size) < 1.0 / live.size)
            if hits.size == 0:
                kind, tag = _IDLE, -1
            elif hits.size > 1:
                kind, tag = _COLLISION, -1
            else:
                j = int(hits[0])
                tag = int(live[j])
                eff = float(
                    st["live_effb"][j] if blocked else st["live_effc"][j]
                )
                if rng.random() < eff:
                    kind = _SINGLE_OK
                    if not payload.persistent:
                        st["read"][st["live_pos"][j]] = True
                        st["dirty"] = True
                else:
                    kind = _SINGLE_FAIL
            out_slots.append(slot)
            out_aps.append(st["ap"])
            out_kinds.append(kind)
            out_tags.append(tag)
    return _ShardResult(
        slots=np.asarray(out_slots, dtype=np.int64),
        aps=np.asarray(out_aps, dtype=np.int64),
        kinds=np.asarray(out_kinds, dtype=np.int64),
        tags=np.asarray(out_tags, dtype=np.int64),
        aps_owned=payload.aps,
        rng_states=tuple(
            st["rng"].bit_generator.state for st in states
        ),
    )


@dataclass(frozen=True)
class ShardEpochTask(SweepTask):
    """One epoch's shard fan-out as a :class:`SweepTask`.

    Point ``i`` evaluates shard ``i``'s payload; the point seed is
    ignored (workers are fully determined by their payloads), which is
    exactly what makes the executor's seeded-retry recovery bit-exact:
    a retried or degraded-to-serial attempt recomputes the identical
    result.  :meth:`narrow` ships each worker only its own slice.
    """

    payloads: tuple[_ShardPayload | None, ...]

    def run(self, value: float, seed: np.random.SeedSequence) -> _ShardResult:
        payload = self.payloads[int(value)]
        assert payload is not None, "narrowed task asked for a foreign shard"
        return _run_shard_epoch(payload)

    def narrow(self, value: float) -> "ShardEpochTask":
        keep = int(value)
        return ShardEpochTask(
            payloads=tuple(
                p if i == keep else None for i, p in enumerate(self.payloads)
            )
        )


def _assign_aps(sizes: list[int], n_shards: int) -> list[int]:
    """Greedy LPT mapping of APs to shards, rebalanced every epoch.

    Largest backlog first onto the least-loaded shard (ties broken by
    index, so the assignment is deterministic).  Because per-AP streams
    make shard outputs partition-independent, this is free
    work-stealing: an AP whose cell drained cheaply this epoch migrates
    to whichever shard has capacity next epoch.
    """
    order = sorted(range(len(sizes)), key=lambda a: (-sizes[a], a))
    loads = [0.0] * n_shards
    owner = [0] * len(sizes)
    for a in order:
        s = min(range(n_shards), key=lambda i: (loads[i], i))
        owner[a] = s
        loads[s] += sizes[a] + 1.0
    return owner


def _build_epoch_payloads(
    plan: _MetroPlan,
    epoch: int,
    read: np.ndarray,
    rng_states: list[dict],
    n_shards: int,
    persistent: bool,
) -> list[_ShardPayload]:
    """Slice one epoch's plan into per-shard payloads."""
    start, end = plan.epoch_bounds(epoch)
    mac_ap = plan.epoch_mac_ap[epoch]
    effc = plan.epoch_eff_clear[epoch]
    effb = plan.epoch_eff_blocked[epoch]
    eligible = np.ones(plan.n_tags, dtype=bool) if persistent else ~read
    members = [
        np.flatnonzero(eligible & (mac_ap == ap)) for ap in range(plan.n_aps)
    ]
    # Handoff commits only ever *remove* a tag from the cell the epoch
    # snapshot put it in (mac_ap changed mid-epoch); commits landing at
    # the epoch boundary itself ran before the relay rewrite and are
    # already absorbed into the snapshot, hence the strict lower bound.
    commit_slots: list[list[int]] = [[] for _ in range(plan.n_aps)]
    commit_tags: list[list[int]] = [[] for _ in range(plan.n_aps)]
    for apply_slot, tag, mac_ap_after in plan.commits:
        if not start < apply_slot < end or not eligible[tag]:
            continue
        cell = int(mac_ap[tag])
        if mac_ap_after != cell:
            commit_slots[cell].append(apply_slot)
            commit_tags[cell].append(tag)
    owner = _assign_aps([m.size for m in members], n_shards)
    payloads = []
    for s in range(n_shards):
        aps = tuple(ap for ap in range(plan.n_aps) if owner[ap] == s)
        payloads.append(
            _ShardPayload(
                aps=aps,
                ap_colors=tuple(int(plan.ap_colors[ap]) for ap in aps),
                reuse_factor=plan.reuse_factor,
                start_slot=start,
                end_slot=end,
                persistent=persistent,
                blocked=plan.blocked_mask[start:end],
                members=tuple(members[ap] for ap in aps),
                eff_clear=tuple(effc[members[ap]] for ap in aps),
                eff_blocked=tuple(effb[members[ap]] for ap in aps),
                commit_slots=tuple(
                    np.asarray(commit_slots[ap], dtype=np.int64) for ap in aps
                ),
                commit_tags=tuple(
                    np.asarray(commit_tags[ap], dtype=np.int64) for ap in aps
                ),
                rng_states=tuple(rng_states[ap] for ap in aps),
            )
        )
    return payloads


# -- pass 3: replay -----------------------------------------------------------


class _ReplayMac(MultiApAlohaMac):
    """MAC that replays merged shard records instead of drawing.

    Reproduces every serial counter and trace/schedule call: a missing
    record for a polled AP means its contender list was empty (idle,
    no draw); otherwise the record's outcome drives the identical
    ``_count``/``_record``/``reads_failed_channel`` updates.  Reads go
    through the population, so the inherited O(1) drain check stops
    the replay at the same slot as serial.
    """

    _EMPTY: tuple = ()

    def load_outcomes(
        self, by_slot: dict[int, tuple[tuple[int, int, int], ...]]
    ) -> None:
        self._by_slot = by_slot

    def on_slot(self, slot: int, blocked: bool) -> None:
        # keep the rebuild cursor in step (the lists themselves are
        # never consulted — outcomes were computed by the workers)
        if self._lists_version != self.shared.version:
            self._lists_version = self.shared.version
        recs = self._by_slot.get(slot, self._EMPTY)
        i = 0
        color = slot % self.deployment.config.spatial_reuse_factor
        for ap in self.deployment.aps_of_color[color]:
            ap = int(ap)
            self.ap_slots += 1
            if i < len(recs) and recs[i][0] == ap:
                kind, tag = recs[i][1], recs[i][2]
                i += 1
                self.offered_sum += 1.0
                if kind == _IDLE:
                    self._count(SlotOutcome.IDLE)
                elif kind == _COLLISION:
                    self._count(SlotOutcome.COLLISION)
                elif kind == _SINGLE_FAIL:
                    self._count(SlotOutcome.SINGLE)
                    self.reads_failed_channel += 1
                else:
                    self._count(SlotOutcome.SINGLE)
                    self._record(int(tag), ap, slot)
            else:
                self.slots_idle += 1


# -- the coordinator ----------------------------------------------------------


def run_multi_ap_sharded(
    config: MultiAPConfig,
    seed: int | np.random.SeedSequence = 0,
    *,
    shards: int = 2,
    trace_path: str | Path | None = None,
    executor: SweepExecutor | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    faults: object = None,
    strategy: object = None,
) -> MultiAPReport:
    """Run one metro simulation sharded across worker processes.

    Byte-identical to ``run_multi_ap(config, seed)`` — same report
    pickle, same trace digest — for any ``shards >= 1`` (the count is
    clamped to the AP count; pass an ``int`` seed or a fresh
    :class:`~numpy.random.SeedSequence`).

    ``executor`` defaults to a process-pool
    :class:`~repro.sim.executor.SweepExecutor` with one worker per
    shard; pass a serial-backend executor to run the whole pipeline in
    one process (still byte-identical — useful for tests and CI).
    ``checkpoint_dir`` writes one checkpoint file per epoch, synced under
    :mod:`repro.sim.checkpoint`'s durability contract; with
    ``resume=True`` completed shard-epochs are restored bit-exactly
    instead of recomputed.  ``faults`` (a
    :class:`~repro.sim.faults.FaultPlan`) is forwarded to every epoch's
    executor run — a killed shard worker degrades the pool and the
    retry stack recovers the identical result.

    ``strategy`` exists only for parity with :func:`run_multi_ap`'s
    signature: the shard workers replay the adaptive ``p = 1/backlog``
    draw pattern verbatim (they never run the strategy slot), so any
    non-default backoff strategy is **rejected loudly** here rather
    than silently diverging from the serial reference.  Mobile-reader
    scenarios are likewise single-AP only
    (:func:`repro.net.scenario.mobile.run_mobile_reader`) and never
    reach this engine.
    """
    from repro.net.scenario.backoff import is_default_strategy

    if not is_default_strategy(strategy):  # loud, never silent divergence
        name = getattr(strategy, "name", strategy)
        raise ValueError(
            f"run_multi_ap_sharded supports only the default "
            f"'adaptive-p' backoff strategy; got {name!r}.  The shard "
            "workers replay the adaptive draw pattern directly, so a "
            "different strategy would silently diverge from serial — "
            "use run_multi_ap(config, seed, strategy=...) instead"
        )
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    n_aps = config.grid_rows * config.grid_cols
    n_shards = max(1, min(int(shards), n_aps))
    plan = _plan_metro(config, seed)

    # Reconstruct the per-AP generators exactly as the serial MAC gets
    # them: children 5..5+n_aps of the root, in ascending AP-id order.
    ap_children = _fresh_seedseq(seed).spawn(_N_PROCESS_STREAMS + n_aps)[
        _N_PROCESS_STREAMS:
    ]
    rng_states = [
        np.random.default_rng(child).bit_generator.state
        for child in ap_children
    ]

    if executor is None:
        executor = SweepExecutor("process", max_workers=n_shards)
    read = np.zeros(plan.n_tags, dtype=bool)
    unread = plan.n_tags
    stop_on_drain = config.stop_when_drained and not config.persistent
    by_slot: dict[int, tuple[tuple[int, int, int], ...]] = {}
    for e in range(len(plan.epoch_starts)):
        if stop_on_drain and unread == 0:
            break  # serial stopped clocking slots; nothing left to draw
        payloads = _build_epoch_payloads(
            plan, e, read, rng_states, n_shards, config.persistent
        )
        task = ShardEpochTask(payloads=tuple(payloads))
        checkpoint = None
        if checkpoint_dir is not None:
            checkpoint = SweepCheckpoint(
                Path(checkpoint_dir) / f"shard_epoch_{e:04d}.jsonl"
            )
        report = executor.run(
            range(len(payloads)),
            task,
            seed=e,
            faults=faults,
            checkpoint=checkpoint,
            resume=resume,
        )
        if report.failed:
            raise RuntimeError(
                f"shard epoch {e}: {report.failed} shard(s) failed "
                f"({report.failures[0].describe()})"
            )
        results = [r for r in report.metrics if isinstance(r, _ShardResult)]
        for result in results:
            for ap, state in zip(result.aps_owned, result.rng_states):
                rng_states[int(ap)] = state
        if results and sum(r.slots.size for r in results):
            slots = np.concatenate([r.slots for r in results])
            aps = np.concatenate([r.aps for r in results])
            kinds = np.concatenate([r.kinds for r in results])
            tags = np.concatenate([r.tags for r in results])
            # (slot, ap) pairs are unique across shards, so this merge
            # order is independent of the shard partition.
            order = np.lexsort((aps, slots))
            slots, aps, kinds, tags = (
                slots[order], aps[order], kinds[order], tags[order]
            )
            for tag in tags[kinds == _SINGLE_OK]:
                if not read[tag]:
                    read[tag] = True
                    unread -= 1
            boundaries = np.flatnonzero(np.diff(slots)) + 1
            for chunk_slots, chunk_aps, chunk_kinds, chunk_tags in zip(
                np.split(slots, boundaries),
                np.split(aps, boundaries),
                np.split(kinds, boundaries),
                np.split(tags, boundaries),
            ):
                by_slot[int(chunk_slots[0])] = tuple(
                    zip(
                        (int(a) for a in chunk_aps),
                        (int(k) for k in chunk_kinds),
                        (int(t) for t in chunk_tags),
                    )
                )

    sim = Simulator(
        seed=_fresh_seedseq(seed), trace_capacity=config.trace_capacity
    )
    parts = _build_metro(sim, config, mac_cls=_ReplayMac)
    assert isinstance(parts.mac, _ReplayMac)
    parts.mac.load_outcomes(by_slot)
    _run_metro(sim, parts)
    final = _finalize_metro(sim, parts)
    if trace_path is not None:
        sim.trace.dump(trace_path)
    return final
