"""Metro-scale multi-AP deployments: grids, handoff, tag-to-tag relaying.

This module lifts the single-AP network simulator to the paper's
deployment vision: a city block covered by a **grid of APs** whose
blockage-limited mmWave cells overlap, tags that **roam** between
cells (random-waypoint mobility from :mod:`repro.channel.waypoint`),
**handoff** with hysteresis on the link margin, and **multi-hop
tag-to-tag relaying** that forwards reads from out-of-coverage tags
through in-coverage neighbours — the trick *Multi-hop Backscatter
Tag-to-Tag Networks* uses at sub-GHz, applied to the mmTag budget.

Everything runs on the :mod:`repro.net.engine` substrate and keeps its
two contracts intact:

* **Total event order** ``(time, seq)``: epoch processes (mobility →
  association → relay) schedule their next epoch from inside their
  handler, so their relative order at every epoch boundary is inherited
  from registration order by seq monotonicity; the MAC's slot event at
  a boundary is scheduled one slot earlier — i.e. *later* than the
  epoch events — so slots always see fresh positions, associations and
  relay routes.
* **Registration-order RNG streams**: all five processes register
  unconditionally in a fixed order (mobility, association, relay,
  blockage, mac), and the MAC then receives one *per-AP* stream per
  grid cell, spawned immediately after registration in ascending AP-id
  order.  Association and relay never draw — handoff and routing are
  pure functions of geometry — so toggling them cannot shift any
  stream by construction, and because each AP draws only from its own
  stream, a sharded run (:mod:`repro.net.shard`) that executes APs on
  different workers reproduces the serial draw sequence exactly.

Physics, by layer:

* **Link budgets** — every (tag, AP) pair is scored by the same
  calibrated :class:`~repro.net.link_model.LinkBudgetModel` the
  single-AP simulator uses; the cell edge is where the budget crosses
  the modulation scheme's BER threshold
  (:func:`repro.core.adaptation.snr_threshold_db`).
* **Cross-AP interference** — co-scheduled APs (same spatial-reuse
  colour) leak power into each other through ULA sidelobes and the
  tags' bistatic Van Atta response, the exact mechanism
  :mod:`repro.core.sdm` models for co-located links, generalised to
  separated mounts.  The per-AP noise rise is folded into an effective
  SINR before the BER conversion.
* **Spatial reuse** — APs are coloured ``(row + col) % factor`` and
  only one colour's APs poll per slot, the classic cellular reuse
  pattern; ``factor=1`` means every AP polls every slot (maximum
  spectral aggression, maximum interference).
* **Mobility time warp** — MAC horizons are milliseconds while walking
  is metres-per-second; ``time_warp`` compresses pedestrian time into
  MAC time (a warp of 1000 packs minutes of walking into one run), the
  standard trick for studying handoff without simulating billions of
  slots.  Doppler is computed from the *pedestrian-time* velocity, so
  reported shifts stay physical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from repro.channel.environment import Environment
from repro.channel.mobility import doppler_shift_hz
from repro.channel.waypoint import RandomWaypointModel
from repro.constants import DEFAULT_CARRIER_HZ
from repro.core.adaptation import snr_threshold_db
from repro.core.ap import APConfig
from repro.core.inventory import SlotOutcome
from repro.core.sdm import SdmCell, SdmLink
from repro.core.tag import TagConfig
from repro.em.propagation import free_space_path_loss_db
from repro.net.engine import Process, Simulator
from repro.net.link_model import LinkBudgetModel
from repro.net.mac import BlockageProcess, MacProcess
from repro.net.population import TagPopulation, jain_fairness

__all__ = [
    "MULTI_AP_REPORT_SCHEMA",
    "MultiAPConfig",
    "Deployment",
    "MetroTagPopulation",
    "MultiAPReport",
    "run_multi_ap",
    "draw_deployment",
    "draw_mobility_traces",
    "compute_relay_routes",
    "effective_link_state",
]

#: Schema version stamped into every :class:`MultiAPReport`; see
#: :data:`repro.net.sim.NETSIM_REPORT_SCHEMA` for the contract.
MULTI_AP_REPORT_SCHEMA = 1

#: Off-axis angle used for the cross-AP leakage geometry: the typical
#: bearing offset between an AP's own beam (steered at its tag) and the
#: direction toward a co-scheduled neighbour AP.  Chosen inside the
#: first sidelobe region of the 32-element ULA — far enough off
#: boresight to be a sidelobe, close enough that the Van Atta bistatic
#: response has not yet collapsed (at 30° both are essentially nulls
#: and the model would predict zero interference everywhere).
_CROSS_CELL_OFF_AXIS_DEG = 8.0


@dataclass(frozen=True)
class MultiAPConfig:
    """Everything one metro-scale run depends on (seed excepted)."""

    # -- AP grid --------------------------------------------------------------
    grid_rows: int = 3
    grid_cols: int = 3
    ap_spacing_m: float = 8.0
    """Centre-to-centre AP pitch; AP ``(r, c)`` sits at
    ``((c + 0.5) * pitch, (r + 0.5) * pitch)``."""
    spatial_reuse_factor: int = 3
    """APs coloured ``(row + col) % factor`` poll in round-robin; 1
    means every AP polls every slot."""

    # -- population -----------------------------------------------------------
    num_tags: int = 200
    num_slots: int = 2000
    frame_bits: int = 256
    tag: TagConfig = field(default_factory=TagConfig)
    ap: APConfig = field(default_factory=APConfig)
    environment: Environment = field(default_factory=Environment.anechoic)
    hotspot_fraction: float = 0.0
    """Fraction of tags deployed clustered around AP 0 (load-imbalance
    scenarios); the rest are uniform over the block."""
    hotspot_sigma_m: float = 2.0

    # -- mobility -------------------------------------------------------------
    mobile_fraction: float = 0.0
    speed_min_m_s: float = 0.5
    speed_max_m_s: float = 1.5
    pause_max_s: float = 0.0
    time_warp: float = 1.0
    """Pedestrian seconds per MAC second (see module docstring)."""
    epoch_slots: int = 100
    """Slots between position / association / relay updates."""

    # -- handoff --------------------------------------------------------------
    handoff_enabled: bool = True
    handoff_hysteresis_db: float = 3.0
    """A candidate AP must beat the serving AP's link margin by this
    much before a handoff is triggered."""
    handoff_delay_slots: int = 8
    """Signalling delay between trigger and commit, in slots."""

    # -- relaying -------------------------------------------------------------
    relay_enabled: bool = True
    relay_range_m: float = 3.0
    """Maximum tag-to-tag hop distance."""
    relay_max_hops: int = 3
    relay_hop_success: float = 0.85
    """Per-hop delivery probability multiplied into the gateway's
    direct frame-success probability."""

    # -- coverage -------------------------------------------------------------
    coverage_margin_db: float = 0.0
    """Extra SNR margin (beyond the scheme's BER threshold) required to
    count a tag as in direct coverage."""

    # -- traffic / blockage ---------------------------------------------------
    persistent: bool = False
    """Saturated mode: tags keep contending after their first read
    (load-balance studies); default is one-shot discovery."""
    blockage_rate_hz: float = 0.0
    blockage_mean_s: float = 0.05
    blockage_attenuation_db: float = 20.0

    # -- instrumentation ------------------------------------------------------
    trace_capacity: int = 4096
    stop_when_drained: bool = True

    def __post_init__(self) -> None:
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError(
                f"grid must be at least 1x1, got "
                f"{self.grid_rows}x{self.grid_cols}"
            )
        if self.ap_spacing_m <= 0:
            raise ValueError(
                f"ap_spacing_m must be > 0, got {self.ap_spacing_m}"
            )
        if self.spatial_reuse_factor < 1:
            raise ValueError(
                "spatial_reuse_factor must be >= 1, got "
                f"{self.spatial_reuse_factor}"
            )
        if self.num_tags < 0:
            raise ValueError(f"num_tags must be >= 0, got {self.num_tags}")
        if self.num_slots < 1:
            raise ValueError(f"num_slots must be >= 1, got {self.num_slots}")
        if self.frame_bits < 1:
            raise ValueError(f"frame_bits must be >= 1, got {self.frame_bits}")
        for name in ("hotspot_fraction", "mobile_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.hotspot_sigma_m <= 0:
            raise ValueError(
                f"hotspot_sigma_m must be > 0, got {self.hotspot_sigma_m}"
            )
        if not 0 < self.speed_min_m_s <= self.speed_max_m_s:
            raise ValueError(
                "speeds must satisfy 0 < min <= max, got "
                f"{self.speed_min_m_s} / {self.speed_max_m_s}"
            )
        if self.pause_max_s < 0:
            raise ValueError(f"pause_max_s must be >= 0, got {self.pause_max_s}")
        if self.time_warp <= 0:
            raise ValueError(f"time_warp must be > 0, got {self.time_warp}")
        if self.epoch_slots < 1:
            raise ValueError(
                f"epoch_slots must be >= 1, got {self.epoch_slots}"
            )
        if self.handoff_hysteresis_db < 0:
            raise ValueError(
                "handoff_hysteresis_db must be >= 0, got "
                f"{self.handoff_hysteresis_db}"
            )
        if self.handoff_delay_slots < 0:
            raise ValueError(
                "handoff_delay_slots must be >= 0, got "
                f"{self.handoff_delay_slots}"
            )
        if self.relay_range_m <= 0:
            raise ValueError(
                f"relay_range_m must be > 0, got {self.relay_range_m}"
            )
        if self.relay_max_hops < 1:
            raise ValueError(
                f"relay_max_hops must be >= 1, got {self.relay_max_hops}"
            )
        if not 0.0 < self.relay_hop_success <= 1.0:
            raise ValueError(
                "relay_hop_success must be in (0, 1], got "
                f"{self.relay_hop_success}"
            )
        if self.blockage_rate_hz < 0:
            raise ValueError(
                f"blockage_rate_hz must be >= 0, got {self.blockage_rate_hz}"
            )
        if self.trace_capacity < 1:
            raise ValueError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )

    @classmethod
    def field_names(cls) -> frozenset[str]:
        """Names sweepable by :class:`~repro.net.task.MultiAPTask`."""
        return frozenset(f.name for f in dataclass_fields(cls))


class Deployment:
    """The static substrate of a run: AP geometry, budgets, interference.

    Holds everything that does not change during a simulation — AP
    positions and reuse colours, the shared
    :class:`~repro.net.link_model.LinkBudgetModel` (identical AP/tag
    hardware everywhere; only geometry varies per pair), the coverage
    threshold and nominal cell radius, and the per-AP interference
    noise rise of the reuse pattern.
    """

    def __init__(self, config: MultiAPConfig) -> None:
        self.config = config
        self.link_model = LinkBudgetModel(
            config.tag, config.ap, config.environment, config.frame_bits
        )
        self.slot_s = self.link_model.slot_duration_s()
        self.n_aps = config.grid_rows * config.grid_cols
        pitch = config.ap_spacing_m
        rows = np.arange(self.n_aps) // config.grid_cols
        cols = np.arange(self.n_aps) % config.grid_cols
        self.ap_xy = np.column_stack(
            ((cols + 0.5) * pitch, (rows + 0.5) * pitch)
        )
        self.area_m = (config.grid_cols * pitch, config.grid_rows * pitch)
        self.reuse_color = (
            (rows + cols) % config.spatial_reuse_factor
        ).astype(np.int64)
        self.aps_of_color = tuple(
            np.flatnonzero(self.reuse_color == c)
            for c in range(config.spatial_reuse_factor)
        )
        self.coverage_snr_db = (
            snr_threshold_db(self.link_model.scheme)
            + config.coverage_margin_db
        )
        self.cell_radius_m = self.link_model.range_for_snr_db(
            self.coverage_snr_db
        )
        self.noise_rise_db = self._interference_noise_rise_db()

    # -- geometry -------------------------------------------------------------

    def distances_to_aps(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``(n, n_aps)`` tag-to-AP distances, floored at 10 cm."""
        dx = np.asarray(x, dtype=np.float64)[:, None] - self.ap_xy[None, :, 0]
        dy = np.asarray(y, dtype=np.float64)[:, None] - self.ap_xy[None, :, 1]
        return np.maximum(np.hypot(dx, dy), 0.1)

    def snr_from_distances(self, distances: np.ndarray) -> np.ndarray:
        """Effective per-(tag, AP) SINR from a ``(n, n_aps)`` distance
        matrix: budget minus each AP's interference noise rise.

        Tags are retrodirective (Van Atta), so the incidence-angle gain
        delta is taken as boresight toward whichever AP is considered.
        """
        snr = self.link_model.snr_db(distances.ravel()).reshape(
            distances.shape
        )
        return snr - self.noise_rise_db[None, :]

    def snr_matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Effective per-(tag, AP) SINR at explicit positions."""
        return self.snr_from_distances(self.distances_to_aps(x, y))

    def snr_to_ap(self, x: float, y: float, ap: int) -> float:
        """Scalar effective SINR of one tag toward one AP."""
        d = max(math.hypot(x - self.ap_xy[ap, 0], y - self.ap_xy[ap, 1]), 0.1)
        return float(self.link_model.snr_db(d)) - float(self.noise_rise_db[ap])

    # -- interference ---------------------------------------------------------

    def _interference_noise_rise_db(self) -> np.ndarray:
        """Per-AP noise rise from co-scheduled (same-colour) APs [dB].

        Reuses the :mod:`repro.core.sdm` leakage mechanism — interferer
        AP illuminates *its* tag at full beam gain, the tag's bistatic
        Van Atta response off the retro direction sprays a sliver
        toward the victim AP, which collects it through a sidelobe —
        with the co-located-mount assumption replaced by the actual
        inter-AP distance on the second leg.
        """
        if self.n_aps == 1:
            return np.zeros(1)
        ref_distance = self.config.ap_spacing_m / 4.0
        ref = SdmLink(
            name="ref", tag_bearing_deg=0.0, tag_distance_m=ref_distance
        )
        cell = SdmCell([ref])
        noise_dbm = cell.noise_power_dbm()
        main_gain = ref.ap_gain_toward(0.0)
        side_gain = ref.ap_gain_toward(_CROSS_CELL_OFF_AXIS_DEG)
        bistatic = ref.tag_array.bistatic_field(
            0.0, math.radians(_CROSS_CELL_OFF_AXIS_DEG)
        )
        tag_gain_db = (
            20.0 * math.log10(abs(bistatic)) if abs(bistatic) > 0 else -300.0
        )
        fixed_db = (
            cell.tx_power_dbm
            + 10.0 * math.log10(max(main_gain, 1e-30))
            + 10.0 * math.log10(max(side_gain, 1e-30))
            + tag_gain_db
            - free_space_path_loss_db(ref_distance, cell.carrier_hz)
            - cell.implementation_loss_db
        )
        noise_w = 10.0 ** ((noise_dbm - 30.0) / 10.0)
        rise = np.zeros(self.n_aps)
        for i in range(self.n_aps):
            interference_w = 0.0
            for j in np.flatnonzero(self.reuse_color == self.reuse_color[i]):
                if j == i:
                    continue
                d_ij = float(
                    np.hypot(*(self.ap_xy[i] - self.ap_xy[j]))
                )
                leak_dbm = fixed_db - free_space_path_loss_db(
                    d_ij, cell.carrier_hz
                )
                interference_w += 10.0 ** ((leak_dbm - 30.0) / 10.0)
            rise[i] = 10.0 * math.log10(1.0 + interference_w / noise_w)
        return rise


# -- shared epoch-cadence kernels ---------------------------------------------
#
# The serial processes below and the sharded coordinator in
# :mod:`repro.net.shard` must make *identical* draws and decisions, so
# the deployment draw sequence and the draw-free route/link
# computations live here as module-level functions both engines call.


def draw_deployment(
    config: MultiAPConfig,
    deployment: Deployment,
    rng: np.random.Generator,
    count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw tag positions + mobility mask in the documented order.

    Draw order (part of the determinism contract): hotspot normals
    (x then y), uniform positions (x then y), then the mobile mask.
    Returns ``(xs, ys, mobile)``.
    """
    width, height = deployment.area_m
    n_hot = int(round(config.hotspot_fraction * count))
    xs = np.empty(count)
    ys = np.empty(count)
    if n_hot:
        centre = deployment.ap_xy[0]
        xs[:n_hot] = centre[0] + rng.normal(
            0.0, config.hotspot_sigma_m, size=n_hot
        )
        ys[:n_hot] = centre[1] + rng.normal(
            0.0, config.hotspot_sigma_m, size=n_hot
        )
    if count - n_hot:
        xs[n_hot:] = rng.uniform(0.25, width - 0.25, size=count - n_hot)
        ys[n_hot:] = rng.uniform(0.25, height - 0.25, size=count - n_hot)
    np.clip(xs, 0.25, width - 0.25, out=xs)
    np.clip(ys, 0.25, height - 0.25, out=ys)
    mobile = rng.random(count) < config.mobile_fraction
    return xs, ys, mobile


def draw_mobility_traces(
    config: MultiAPConfig,
    deployment: Deployment,
    rng: np.random.Generator,
    start_x: np.ndarray,
    start_y: np.ndarray,
    *,
    n_epochs: int,
    epoch_dt_s: float,
) -> np.ndarray:
    """Pre-generate waypoint traces, one per mobile tag in id order.

    Returns a ``(n_mobile, n_epochs + 1, 2)`` position array sampled at
    the (time-warped) epoch cadence.  Same stream, same order as the
    deployment draws — :func:`draw_deployment` first, then this.
    """
    width, height = deployment.area_m
    model = RandomWaypointModel(
        x_min=0.25,
        x_max=width - 0.25,
        y_min=0.25,
        y_max=height - 0.25,
        speed_min_m_s=config.speed_min_m_s,
        speed_max_m_s=config.speed_max_m_s,
        pause_max_s=config.pause_max_s,
    )
    interval = epoch_dt_s * config.time_warp
    duration = n_epochs * interval
    traces = np.empty((start_x.size, n_epochs + 1, 2))
    for k in range(start_x.size):
        trace = model.generate_trace(
            duration,
            interval,
            rng=rng,
            start_xy=(float(start_x[k]), float(start_y[k])),
        )
        for s in range(n_epochs + 1):
            traces[k, s, 0] = trace[s].x_m
            traces[k, s, 1] = trace[s].y_m
    return traces


def compute_relay_routes(
    xy: np.ndarray,
    covered: np.ndarray,
    *,
    relay_enabled: bool,
    relay_range_m: float,
    relay_max_hops: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first tag-to-tag attach; returns ``(hops, gateway)``.

    Draw-free and fully deterministic: out-of-coverage tags attach to
    the nearest already-reached tag within ``relay_range_m``, hop level
    by hop level, everything in ascending-id order.  ``hops`` is 0 for
    direct coverage, -1 for unreachable; ``gateway`` is the covered tag
    whose AP link a relayed tag rides (itself when direct).
    """
    n = covered.size
    idx = np.arange(n)
    hops = np.full(n, -1, dtype=np.int64)
    gateway = np.full(n, -1, dtype=np.int64)
    hops[covered] = 0
    gateway[covered] = idx[covered]
    if relay_enabled and covered.any():
        reached = np.sort(idx[covered])
        pending = idx[~covered]
        for _hop in range(relay_max_hops):
            if pending.size == 0 or reached.size == 0:
                break
            tree = cKDTree(xy[reached])
            dist, nearest = tree.query(xy[pending], k=1)
            attach = dist <= relay_range_m
            if not attach.any():
                break
            newly = pending[attach]
            parents = reached[nearest[attach]]
            gateway[newly] = gateway[parents]
            hops[newly] = hops[parents] + 1
            reached = np.sort(np.concatenate((reached, newly)))
            pending = pending[~attach]
    return hops, gateway


def effective_link_state(
    link_model: LinkBudgetModel,
    snr_serving: np.ndarray,
    serving: np.ndarray,
    hops: np.ndarray,
    gateway: np.ndarray,
    *,
    relay_hop_success: float,
    blockage_attenuation_db: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-tag effective success probabilities and MAC cell.

    A relayed tag's frames ride through its gateway: its MAC cell is
    the gateway's serving AP and its frame-success probability is the
    gateway's direct probability decayed ``relay_hop_success`` per hop.
    Returns ``(eff_clear, eff_blocked, mac_ap)``.
    """
    direct_clear = link_model.frame_success_from_snr_db(snr_serving)
    direct_blocked = link_model.frame_success_from_snr_db(
        snr_serving - 2.0 * blockage_attenuation_db
    )
    eff_clear = direct_clear.copy()
    eff_blocked = direct_blocked.copy()
    mac_ap = serving.copy()
    relayed = hops > 0
    if relayed.any():
        gw = gateway[relayed]
        decay = relay_hop_success ** hops[relayed]
        eff_clear[relayed] = direct_clear[gw] * decay
        eff_blocked[relayed] = direct_blocked[gw] * decay
        mac_ap[relayed] = serving[gw]
    return eff_clear, eff_blocked, mac_ap


class MetroTagPopulation(TagPopulation):
    """Tag population with position, serving-cell and relay state."""

    _ARRAYS = TagPopulation._ARRAYS + (
        ("x_m", np.float64, 0.0),
        ("y_m", np.float64, 0.0),
        ("mobile", bool, False),
        ("serving_ap", np.int64, -1),
        ("mac_ap", np.int64, -1),
        ("relay_hops", np.int64, -1),
        ("relay_gateway", np.int64, -1),
        ("eff_clear_p", np.float64, 0.0),
        ("eff_blocked_p", np.float64, 0.0),
        ("read_ap", np.int64, -1),
        ("read_relayed", bool, False),
        ("read_distance_m", np.float64, np.nan),
    )

    def add_at(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        mobile: np.ndarray,
        time_s: float,
    ) -> np.ndarray:
        """Deploy tags at explicit positions; budgets are filled per
        epoch by the association/relay processes."""
        xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        n = xs.size
        zeros = np.zeros(n)
        ids = self.add(zeros + 1.0, zeros, zeros, zeros, time_s)
        self.x_m[ids] = xs
        self.y_m[ids] = np.atleast_1d(ys)
        self.mobile[ids] = np.atleast_1d(mobile)
        return ids

    def success_p(self, ids: np.ndarray, blocked: bool) -> np.ndarray:
        src = self.eff_blocked_p if blocked else self.eff_clear_p
        return src[ids]


class _EpochShared:
    """Per-epoch products shared between the epoch-cadence processes.

    ``distances`` and ``snr`` are the ``(n, n_aps)`` tag-to-AP matrices
    at the current positions.  Association owns them and keeps them
    from epoch to epoch, repricing in place only the rows of tags that
    moved; relay reads them in the same epoch (fixed order).
    ``version`` is bumped once per completed relay epoch so the MAC can
    rebuild its contender lists exactly when routes changed, without
    comparing floating-point event times at epoch boundaries.
    ``dirty_cells`` names the cells whose contender list may still hold
    a tag that has left it (read, or moved by a handoff commit) since
    the MAC last filtered it.
    """

    def __init__(self) -> None:
        self.snr: np.ndarray | None = None
        self.distances: np.ndarray | None = None
        self.version = 0
        self.dirty_cells: set[int] = set()


class MobilityProcess(Process):
    """Random-waypoint roaming sampled at the epoch cadence.

    Traces are generated up front in :meth:`deploy` (documented draw
    order: hotspot normals, uniform positions, mobile mask, then one
    trace per mobile tag in ascending id order) and replayed at epoch
    boundaries, so epoch handlers never draw.
    """

    def __init__(
        self,
        population: MetroTagPopulation,
        deployment: Deployment,
        *,
        n_epochs: int,
        epoch_dt_s: float,
    ) -> None:
        super().__init__("mobility")
        self.population = population
        self.deployment = deployment
        self.n_epochs = n_epochs
        self.epoch_dt_s = epoch_dt_s
        self.max_doppler_hz = 0.0
        self._mobile_ids = np.empty(0, dtype=np.int64)
        self._traces = np.empty((0, 0, 2))
        self._epoch = 0

    def deploy(self, count: int) -> np.ndarray:
        """Place the cohort and pre-generate every mobility trace."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        assert self.rng is not None
        config = self.deployment.config
        xs, ys, mobile = draw_deployment(
            config, self.deployment, self.rng, count
        )
        ids = self.population.add_at(xs, ys, mobile, self.now if self.sim else 0.0)
        self._mobile_ids = ids[mobile]
        if self._mobile_ids.size:
            self._traces = draw_mobility_traces(
                config,
                self.deployment,
                self.rng,
                xs[mobile],
                ys[mobile],
                n_epochs=self.n_epochs,
                epoch_dt_s=self.epoch_dt_s,
            )
        self.trace("deploy", count=int(count), mobile=int(self._mobile_ids.size))
        return ids

    def start(self) -> None:
        self.schedule(0.0, self._epoch_event)

    def _epoch_event(self) -> None:
        pop = self.population
        ids = self._mobile_ids
        k = min(self._epoch, self.n_epochs)
        if ids.size and self._epoch > 0:
            serving = pop.serving_ap[ids]
            placed = serving >= 0
            if placed.any():
                sub = ids[placed]
                ap_xy = self.deployment.ap_xy[serving[placed]]
                before = np.hypot(
                    pop.x_m[sub] - ap_xy[:, 0], pop.y_m[sub] - ap_xy[:, 1]
                )
                after = np.hypot(
                    self._traces[placed, k, 0] - ap_xy[:, 0],
                    self._traces[placed, k, 1] - ap_xy[:, 1],
                )
                pedestrian_dt = (
                    self.epoch_dt_s * self.deployment.config.time_warp
                )
                radial_v = (after - before) / pedestrian_dt
                # approaching (distance shrinking) => positive Doppler;
                # doppler_shift_hz is plain arithmetic, array-safe
                shifts = np.abs(doppler_shift_hz(-radial_v, DEFAULT_CARRIER_HZ))
                if shifts.size:
                    self.max_doppler_hz = max(
                        self.max_doppler_hz, float(shifts.max())
                    )
        if ids.size:
            pop.x_m[ids] = self._traces[:, k, 0]
            pop.y_m[ids] = self._traces[:, k, 1]
            self.trace("move", epoch=int(self._epoch), tags=int(ids.size))
        self._epoch += 1
        if self._epoch < self.n_epochs:
            self.schedule(self.epoch_dt_s, self._epoch_event)


class AssociationProcess(Process):
    """Cell association with hysteresis-triggered, delayed handoff.

    Draw-free: association is a pure function of the epoch's SNR
    matrix.  A handoff triggers when some AP beats the serving AP's
    link margin by the hysteresis and commits ``handoff_delay_slots``
    later (the signalling delay); the recorded latency runs from the
    first epoch at which a strictly better AP existed to the commit —
    the coverage gap a roaming tag actually experiences.

    The first epoch prices every (tag, AP) pair.  Later epochs reprice
    only the rows whose ``(x, y)`` differs from the position they were
    last priced at, so an epoch costs O(moved × APs + n).  Distance, SNR
    and best AP are row-local, so a row priced alone has the bits a
    whole-matrix pricing gives it.
    """

    def __init__(
        self,
        population: MetroTagPopulation,
        deployment: Deployment,
        shared: _EpochShared,
        *,
        n_epochs: int,
        epoch_dt_s: float,
    ) -> None:
        super().__init__("assoc")
        self.population = population
        self.deployment = deployment
        self.shared = shared
        self.n_epochs = n_epochs
        self.epoch_dt_s = epoch_dt_s
        self.handoffs = 0
        self.latencies_s: list[float] = []
        self._epoch = 0
        self._better_since: np.ndarray | None = None
        self._pending: np.ndarray | None = None
        # positions and best AP of the rows in shared.distances/snr
        self._priced_x = np.empty(0)
        self._priced_y = np.empty(0)
        self._best = np.empty(0, dtype=np.intp)

    def start(self) -> None:
        self.schedule(0.0, self._epoch_event)

    def _reprice_moved(self, n: int) -> None:
        """Bring ``shared.distances``/``snr`` and ``_best`` to the
        current positions (all rows when the population size changed)."""
        shared, deployment = self.shared, self.deployment
        x, y = self.population.x_m[:n], self.population.y_m[:n]
        if self._best.size != n:
            shared.distances = deployment.distances_to_aps(x, y)
            shared.snr = deployment.snr_from_distances(shared.distances)
            self._best = np.argmax(shared.snr, axis=1)
        else:
            moved = np.flatnonzero((x != self._priced_x) | (y != self._priced_y))
            distances = deployment.distances_to_aps(x[moved], y[moved])
            snr = deployment.snr_from_distances(distances)
            shared.distances[moved] = distances
            shared.snr[moved] = snr
            self._best[moved] = np.argmax(snr, axis=1)
        self._priced_x, self._priced_y = x.copy(), y.copy()

    def _epoch_event(self) -> None:
        pop = self.population
        n = len(pop)
        if n == 0:
            self._advance()
            return
        if self._better_since is None:
            self._better_since = np.full(n, np.nan)
            self._pending = np.zeros(n, dtype=bool)
        config = self.deployment.config
        self._reprice_moved(n)
        snr = self.shared.snr
        best = self._best
        serving = pop.serving_ap[:n]
        fresh = serving < 0
        if fresh.any():
            pop.serving_ap[:n][fresh] = best[fresh]
            pop.mac_ap[:n][fresh] = best[fresh]
            serving = pop.serving_ap[:n]
            self.trace("associate", tags=int(fresh.sum()))
        if config.handoff_enabled:
            idx = np.arange(n)
            snr_serving = snr[idx, serving]
            snr_best = snr[idx, best]
            better = (best != serving) & (snr_best > snr_serving)
            assert self._better_since is not None and self._pending is not None
            self._better_since[~better] = np.nan
            newly_better = better & np.isnan(self._better_since)
            self._better_since[newly_better] = self.now
            trigger = (
                better
                & (snr_best - snr_serving > config.handoff_hysteresis_db)
                & ~self._pending
            )
            delay = config.handoff_delay_slots * self.deployment.slot_s
            for tag_id in np.flatnonzero(trigger):
                self._pending[tag_id] = True
                target = int(best[tag_id])
                self.schedule(
                    delay,
                    lambda t=int(tag_id), a=target: self._commit(t, a),
                )
        # serving-AP distance for reporting / spot checks
        idx = np.arange(n)
        pop.distance_m[:n] = self.shared.distances[idx, pop.serving_ap[:n]]
        self._advance()

    def _advance(self) -> None:
        self._epoch += 1
        if self._epoch < self.n_epochs:
            self.schedule(self.epoch_dt_s, self._epoch_event)

    def _commit(self, tag_id: int, target: int) -> None:
        pop = self.population
        assert self._better_since is not None and self._pending is not None
        source = int(pop.serving_ap[tag_id])
        pop.serving_ap[tag_id] = target
        since = self._better_since[tag_id]
        latency = self.now - since if math.isfinite(since) else 0.0
        self.handoffs += 1
        self.latencies_s.append(float(latency))
        self._better_since[tag_id] = np.nan
        self._pending[tag_id] = False
        if pop.relay_hops[tag_id] == 0:
            # direct tags follow their serving cell immediately; relayed
            # tags keep their gateway route until the next relay epoch
            self.shared.dirty_cells.add(int(pop.mac_ap[tag_id]))
            pop.mac_ap[tag_id] = target
            snr = self.deployment.snr_to_ap(
                float(pop.x_m[tag_id]), float(pop.y_m[tag_id]), target
            )
            model = self.deployment.link_model
            atten = self.deployment.config.blockage_attenuation_db
            pop.eff_clear_p[tag_id] = model.frame_success(snr)
            pop.eff_blocked_p[tag_id] = model.frame_success(
                snr - 2.0 * atten
            )
        self.trace(
            "handoff",
            tag=int(tag_id),
            source=source,
            target=int(target),
            latency_us=round(latency * 1e6, 3),
        )


class RelayProcess(Process):
    """Multi-hop tag-to-tag relay routing, recomputed every epoch.

    Out-of-coverage tags attach to the nearest already-reached tag
    within ``relay_range_m`` (breadth-first over hop levels, KD-tree
    nearest-neighbour queries, everything in ascending-id order — fully
    deterministic, no RNG).  A relayed tag's frames ride through its
    gateway: its MAC cell becomes the gateway's serving AP and its
    frame-success probability is the gateway's direct probability
    decayed by ``relay_hop_success`` per hop.
    """

    def __init__(
        self,
        population: MetroTagPopulation,
        deployment: Deployment,
        shared: _EpochShared,
        *,
        n_epochs: int,
        epoch_dt_s: float,
    ) -> None:
        super().__init__("relay")
        self.population = population
        self.deployment = deployment
        self.shared = shared
        self.n_epochs = n_epochs
        self.epoch_dt_s = epoch_dt_s
        self.covered_direct = 0
        self.covered_relay = 0
        self.unreachable = 0
        self._epoch = 0

    def start(self) -> None:
        self.schedule(0.0, self._epoch_event)

    def _epoch_event(self) -> None:
        pop = self.population
        n = len(pop)
        if n == 0:
            self._advance()
            return
        config = self.deployment.config
        snr = self.shared.snr
        assert snr is not None, "association must run before relay"
        idx = np.arange(n)
        serving = pop.serving_ap[:n]
        snr_serving = snr[idx, serving]
        covered = snr_serving >= self.deployment.coverage_snr_db

        hops, gateway = compute_relay_routes(
            np.column_stack((pop.x_m[:n], pop.y_m[:n])),
            covered,
            relay_enabled=config.relay_enabled,
            relay_range_m=config.relay_range_m,
            relay_max_hops=config.relay_max_hops,
        )
        eff_clear, eff_blocked, mac_ap = effective_link_state(
            self.deployment.link_model,
            snr_serving,
            serving,
            hops,
            gateway,
            relay_hop_success=config.relay_hop_success,
            blockage_attenuation_db=config.blockage_attenuation_db,
        )
        relayed = hops > 0
        pop.relay_hops[:n] = hops
        pop.relay_gateway[:n] = gateway
        pop.eff_clear_p[:n] = eff_clear
        pop.eff_blocked_p[:n] = eff_blocked
        pop.mac_ap[:n] = mac_ap
        self.covered_direct = int(covered.sum())
        self.covered_relay = int(relayed.sum())
        self.unreachable = int((hops < 0).sum())
        self.shared.version += 1
        self.trace(
            "routes",
            epoch=int(self._epoch),
            direct=self.covered_direct,
            relayed=self.covered_relay,
            unreachable=self.unreachable,
        )
        self._advance()

    def _advance(self) -> None:
        self._epoch += 1
        if self._epoch < self.n_epochs:
            self.schedule(self.epoch_dt_s, self._epoch_event)


class MultiApAlohaMac(MacProcess):
    """Slotted ALOHA across a reuse-coloured AP grid.

    Each slot, the APs of colour ``slot % reuse_factor`` poll in
    ascending AP-id order; each polls its own cell's contenders
    (adaptive ``p = 1/backlog``) and a lone responder's frame draws
    success from the tag's *effective* probability — direct SINR-based
    for in-coverage tags, gateway-decayed for relayed ones.  Contender
    lists are rebuilt whenever the relay process publishes a new route
    version (a counter, so nothing compares floating-point event times).
    Between rebuilds a cell's list is re-filtered, and the result kept,
    only at the first poll after a read or a handoff commit touched the
    cell (``_EpochShared.dirty_cells``), and the drain check reads the
    population's unread counter — so the per-slot cost is the draw over
    the polled cells' backlogs, not a pass over the population.

    Every AP draws from its **own** RNG stream (``ap_rngs``, assigned
    by :func:`_build_metro` in ascending AP-id order right after
    process registration).  Per-AP streams make the draw sequence of
    one cell independent of every other cell's backlog, which is what
    lets :mod:`repro.net.shard` run disjoint AP sets on different
    worker processes and still reproduce the serial run bit for bit.

    ``strategy`` swaps the per-cell arbitration rule for a
    :class:`~repro.net.scenario.backoff.BackoffStrategy` — the same
    draw-count-stable slot :class:`~repro.net.mac.SlottedAlohaMac`
    carries (one uniform per contender per AP activation, from that
    AP's stream).  Window state is per tag, so a tag keeps its backoff
    history across handoffs.  The sharded engine supports only the
    default rule and rejects anything else loudly
    (:func:`repro.net.shard.run_multi_ap_sharded`).
    """

    def __init__(
        self,
        population: MetroTagPopulation,
        blockage: BlockageProcess,
        deployment: Deployment,
        shared: _EpochShared,
        *,
        num_slots: int,
        frame_bits: int,
        persistent: bool = False,
        stop_when_drained: bool = True,
        strategy=None,
    ) -> None:
        super().__init__(
            "ap/metro",
            population,
            blockage,
            num_slots=num_slots,
            slot_s=deployment.slot_s,
            frame_bits=frame_bits,
            stop_when_drained=stop_when_drained and not persistent,
        )
        self.deployment = deployment
        self.shared = shared
        self.persistent = persistent
        self.strategy = strategy
        self.ap_rngs: list[np.random.Generator] | None = None
        self.ap_slots = 0
        self.per_ap_reads = np.zeros(deployment.n_aps, dtype=np.int64)
        self.reads_relayed = 0
        self.max_read_range_m = float("nan")
        self._lists_version = -1
        self._ap_ids: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(deployment.n_aps)
        ]

    def _success_p(self, tag_id: int, blocked: bool) -> float:
        pop = self.population
        src = pop.eff_blocked_p if blocked else pop.eff_clear_p
        return float(src[tag_id])

    def _rebuild_lists(self) -> None:
        pop = self.population
        eligible = (
            pop.active_ids() if self.persistent else pop.active_unread_ids()
        )
        cells = pop.mac_ap[eligible]
        self._ap_ids = [
            eligible[cells == ap] for ap in range(self.deployment.n_aps)
        ]
        self.shared.dirty_cells.clear()

    def on_slot(self, slot: int, blocked: bool) -> None:
        assert self.ap_rngs is not None, "per-AP streams not assigned"
        if self._lists_version != self.shared.version:
            self._rebuild_lists()
            self._lists_version = self.shared.version
        pop = self.population
        dirty = self.shared.dirty_cells
        color = slot % self.deployment.config.spatial_reuse_factor
        for ap in self.deployment.aps_of_color[color]:
            ap = int(ap)
            ids = self._ap_ids[ap]
            if ap in dirty:
                # Keeping the filtered list is exact: between rebuilds a
                # tag leaves a cell at most once (reads are permanent; a
                # tag has at most one handoff commit per epoch) and joins
                # none until the next rebuild, so a dropped id can never
                # pass this filter again.  repro.net.shard relies on the
                # same invariant.
                dirty.discard(ap)
                keep = pop.mac_ap[ids] == ap
                if not self.persistent:
                    keep &= ~pop.read[ids]
                ids = self._ap_ids[ap] = ids[keep]
            self.ap_slots += 1
            if ids.size == 0:
                self.slots_idle += 1
                continue
            rng = self.ap_rngs[ap]
            if self.strategy is None:
                p = 1.0 / ids.size
                self.offered_sum += 1.0
            else:
                p = self.strategy.transmit_probabilities(ids, slot)
                self.offered_sum += (
                    ids.size * p if isinstance(p, float) else float(p.sum())
                )
            responders = ids[rng.random(ids.size) < p]
            if responders.size == 0:
                self._count(SlotOutcome.IDLE)
                if self.strategy is not None:
                    self.strategy.observe_slot(responders, None)
                continue
            if responders.size > 1:
                self._count(SlotOutcome.COLLISION)
                if self.strategy is not None:
                    self.strategy.observe_slot(responders, False)
                continue
            self._count(SlotOutcome.SINGLE)
            tag_id = int(responders[0])
            if rng.random() < self._success_p(tag_id, blocked):
                self._record(tag_id, ap, slot)
                if not self.persistent:
                    dirty.add(ap)
                delivered = True
            else:
                self.reads_failed_channel += 1
                delivered = False
            if self.strategy is not None:
                self.strategy.observe_slot(responders, delivered)

    def _record(self, tag_id: int, ap: int, slot: int) -> None:
        pop = self.population
        first_read = not bool(pop.read[tag_id])
        pop.record_read(tag_id, self.frame_bits, self.now)
        self.frames_delivered += 1
        self.per_ap_reads[ap] += 1
        hops = int(pop.relay_hops[tag_id])
        if first_read:
            pop.read_ap[tag_id] = ap
            distance = max(
                math.hypot(
                    float(pop.x_m[tag_id]) - self.deployment.ap_xy[ap, 0],
                    float(pop.y_m[tag_id]) - self.deployment.ap_xy[ap, 1],
                ),
                0.1,
            )
            pop.read_distance_m[tag_id] = distance
            if hops > 0:
                pop.read_relayed[tag_id] = True
            if not (self.max_read_range_m >= distance):
                self.max_read_range_m = distance
            self.trace(
                "read", tag=tag_id, ap=ap, slot=int(slot), hops=hops
            )
        if hops > 0:
            self.reads_relayed += 1


@dataclass(frozen=True)
class MultiAPReport:
    """The complete, picklable outcome of one :func:`run_multi_ap`."""

    config: MultiAPConfig
    seed_key: tuple[int, ...]

    # -- deployment -----------------------------------------------------------
    n_aps: int
    cell_radius_m: float
    """Nominal single-AP cell edge (budget crosses the BER threshold)."""
    noise_rise_max_db: float

    # -- air time -------------------------------------------------------------
    slot_s: float
    slots_run: int
    duration_s: float

    # -- slot outcomes (per AP activation) ------------------------------------
    ap_slots: int
    slots_idle: int
    slots_single: int
    slots_collision: int
    blocked_slots: int
    reads_failed_channel: int
    frames_delivered: int

    # -- population -----------------------------------------------------------
    tags_total: int
    tags_read: int
    tags_read_relayed: int
    coverage_direct: float
    """Fraction of tags inside some AP's direct coverage (final epoch)."""
    coverage_relay: float
    """Fraction reachable only through relaying (final epoch)."""
    unreachable: int
    max_read_range_m: float
    """Largest tag-to-AP distance over all first reads (NaN if none)."""

    # -- load balance ---------------------------------------------------------
    per_ap_reads: tuple[int, ...]
    ap_load_jain: float

    # -- handoff --------------------------------------------------------------
    handoffs: int
    handoff_latency_mean_s: float
    handoff_latency_p50_s: float
    handoff_latency_p95_s: float
    max_doppler_hz: float

    # -- headline metrics -----------------------------------------------------
    delivered_bits: int
    goodput_bps: float
    latency_mean_s: float
    latency_p95_s: float
    jain_fairness: float

    # -- audits ---------------------------------------------------------------
    trace_digest: str
    trace_events: int
    events_processed: int

    # -- provenance -----------------------------------------------------------
    schema_version: int = MULTI_AP_REPORT_SCHEMA

    def summary(self) -> str:
        """Human-readable multi-line digest (CLI output)."""
        config = self.config
        lines = [
            f"deployment          : {config.grid_rows}x{config.grid_cols} APs, "
            f"{config.ap_spacing_m:.1f} m pitch, reuse "
            f"{config.spatial_reuse_factor}",
            f"cell radius         : {self.cell_radius_m:.2f} m "
            f"(max noise rise {self.noise_rise_max_db:.2f} dB)",
            f"tags                : {self.tags_total} "
            f"({config.mobile_fraction:.0%} mobile)",
            f"slots run           : {self.slots_run} of {config.num_slots} "
            f"({self.ap_slots} AP activations)",
            f"slot outcomes       : {self.slots_idle} idle / "
            f"{self.slots_single} single / {self.slots_collision} collision",
            f"frames delivered    : {self.frames_delivered} "
            f"({self.reads_failed_channel} lost to channel)",
            f"tags read           : {self.tags_read}/{self.tags_total} "
            f"({self.tags_read_relayed} via relay)",
            f"coverage            : {self.coverage_direct:.1%} direct + "
            f"{self.coverage_relay:.1%} relayed "
            f"({self.unreachable} unreachable)",
            f"max read range      : {self.max_read_range_m:.2f} m"
            if math.isfinite(self.max_read_range_m)
            else "max read range      : n/a",
            f"per-AP reads        : {list(self.per_ap_reads)}",
            f"AP load Jain        : {self.ap_load_jain:.4f}",
            f"handoffs            : {self.handoffs}",
        ]
        if self.handoffs:
            lines.append(
                f"handoff latency     : "
                f"{self.handoff_latency_mean_s * 1e6:.1f} us mean / "
                f"{self.handoff_latency_p95_s * 1e6:.1f} us p95"
            )
        if self.max_doppler_hz > 0:
            lines.append(
                f"max Doppler         : {self.max_doppler_hz:.1f} Hz"
            )
        lines.append(f"goodput             : {self.goodput_bps / 1e3:.1f} kbit/s")
        lines.append(f"trace digest        : {self.trace_digest[:16]}...")
        return "\n".join(lines)


@dataclass
class _MetroParts:
    """Everything :func:`_build_metro` wires up for one metro run."""

    deployment: Deployment
    population: MetroTagPopulation
    shared: _EpochShared
    mobility: MobilityProcess
    assoc: AssociationProcess
    relay: RelayProcess
    blockage: BlockageProcess
    mac: MultiApAlohaMac
    horizon_s: float


def _build_metro(
    sim: Simulator,
    config: MultiAPConfig,
    *,
    mac_cls: type[MultiApAlohaMac] = MultiApAlohaMac,
    assoc_cls: type[AssociationProcess] = AssociationProcess,
    strategy=None,
) -> _MetroParts:
    """Register the metro process stack on ``sim`` (nothing runs yet).

    Shared between the serial reference (:func:`run_multi_ap`) and the
    sharded planner/replay engines (:mod:`repro.net.shard`), so all
    three consume the root seed sequence identically: five process
    streams in registration order, then one stream per AP in ascending
    AP-id order for the MAC.  ``mac_cls`` / ``assoc_cls`` let the
    sharded engines substitute recording/replaying subclasses without
    perturbing that contract.
    """
    deployment = Deployment(config)
    slot_s = deployment.slot_s
    horizon_s = config.num_slots * slot_s
    epoch_dt_s = config.epoch_slots * slot_s
    n_epochs = -(-config.num_slots // config.epoch_slots)  # ceil
    population = MetroTagPopulation(expected_tags=config.num_tags)
    shared = _EpochShared()

    # Registration order IS the determinism contract — never reorder,
    # never register conditionally.
    mobility = sim.add_process(
        MobilityProcess(
            population, deployment, n_epochs=n_epochs, epoch_dt_s=epoch_dt_s
        )
    )
    assoc = sim.add_process(
        assoc_cls(
            population,
            deployment,
            shared,
            n_epochs=n_epochs,
            epoch_dt_s=epoch_dt_s,
        )
    )
    relay = sim.add_process(
        RelayProcess(
            population,
            deployment,
            shared,
            n_epochs=n_epochs,
            epoch_dt_s=epoch_dt_s,
        )
    )
    blockage = sim.add_process(
        BlockageProcess(
            rate_hz=config.blockage_rate_hz,
            mean_duration_s=config.blockage_mean_s,
            attenuation_db=config.blockage_attenuation_db,
            slot_s=slot_s,
            horizon_s=horizon_s,
        )
    )
    mac = sim.add_process(
        mac_cls(
            population,
            blockage,
            deployment,
            shared,
            num_slots=config.num_slots,
            frame_bits=config.frame_bits,
            persistent=config.persistent,
            stop_when_drained=config.stop_when_drained,
            strategy=strategy,
        )
    )
    assert isinstance(mobility, MobilityProcess)
    assert isinstance(assoc, AssociationProcess)
    assert isinstance(relay, RelayProcess)
    assert isinstance(mac, MultiApAlohaMac)
    mac.ap_rngs = [sim.spawn_stream() for _ in range(deployment.n_aps)]
    return _MetroParts(
        deployment=deployment,
        population=population,
        shared=shared,
        mobility=mobility,
        assoc=assoc,
        relay=relay,
        blockage=blockage,
        mac=mac,
        horizon_s=horizon_s,
    )


def _run_metro(sim: Simulator, parts: _MetroParts) -> None:
    """Deploy, start every process, and run the event loop dry."""
    parts.mobility.deploy(parts.deployment.config.num_tags)
    for process in (
        parts.mobility, parts.assoc, parts.relay, parts.blockage, parts.mac
    ):
        process.start()
    sim.run(until=parts.horizon_s)


def _finalize_metro(sim: Simulator, parts: _MetroParts) -> MultiAPReport:
    """Assemble the report from a completed metro run."""
    config = parts.deployment.config
    deployment = parts.deployment
    population = parts.population
    mobility = parts.mobility
    assoc = parts.assoc
    relay = parts.relay
    mac = parts.mac
    slot_s = deployment.slot_s
    n = len(population)
    slots_run = mac.slots_run
    duration_s = slots_run * slot_s
    delivered_bits = int(population.delivered_bits[:n].sum())
    latencies = population.latencies_s()
    if latencies.size:
        latency_mean = float(latencies.mean())
        latency_p95 = float(np.percentile(latencies, 95))
    else:
        latency_mean = latency_p95 = float("nan")
    handoff_lat = np.asarray(assoc.latencies_s)
    if handoff_lat.size:
        handoff_mean = float(handoff_lat.mean())
        handoff_p50 = float(np.percentile(handoff_lat, 50))
        handoff_p95 = float(np.percentile(handoff_lat, 95))
    else:
        handoff_mean = handoff_p50 = handoff_p95 = float("nan")
    read_range = population.read_distance_m[:n]
    finite_range = read_range[np.isfinite(read_range)]

    report = MultiAPReport(
        config=config,
        seed_key=tuple(int(w) for w in sim.entropy.generate_state(4)),
        n_aps=deployment.n_aps,
        cell_radius_m=float(deployment.cell_radius_m),
        noise_rise_max_db=float(deployment.noise_rise_db.max()),
        slot_s=slot_s,
        slots_run=slots_run,
        duration_s=duration_s,
        ap_slots=mac.ap_slots,
        slots_idle=mac.slots_idle,
        slots_single=mac.slots_single,
        slots_collision=mac.slots_collision,
        blocked_slots=mac.blocked_slots,
        reads_failed_channel=mac.reads_failed_channel,
        frames_delivered=mac.frames_delivered,
        tags_total=n,
        tags_read=int(population.read[:n].sum()),
        tags_read_relayed=int(population.read_relayed[:n].sum()),
        coverage_direct=(relay.covered_direct / n if n else 0.0),
        coverage_relay=(relay.covered_relay / n if n else 0.0),
        unreachable=relay.unreachable,
        max_read_range_m=(
            float(finite_range.max()) if finite_range.size else float("nan")
        ),
        per_ap_reads=tuple(int(r) for r in mac.per_ap_reads),
        ap_load_jain=jain_fairness(mac.per_ap_reads),
        handoffs=assoc.handoffs,
        handoff_latency_mean_s=handoff_mean,
        handoff_latency_p50_s=handoff_p50,
        handoff_latency_p95_s=handoff_p95,
        max_doppler_hz=float(mobility.max_doppler_hz),
        delivered_bits=delivered_bits,
        goodput_bps=(delivered_bits / duration_s if duration_s else 0.0),
        latency_mean_s=latency_mean,
        latency_p95_s=latency_p95,
        jain_fairness=population.fairness(),
        trace_digest=sim.trace.digest(),
        trace_events=sim.trace.total,
        events_processed=sim.events_processed,
    )
    return report


def run_multi_ap(
    config: MultiAPConfig,
    seed: int | np.random.SeedSequence = 0,
    trace_path: str | Path | None = None,
    *,
    strategy=None,
) -> MultiAPReport:
    """Run one metro-scale simulation; deterministic in (config, seed).

    ``trace_path``, when given, dumps the event-trace ring (JSONL with
    a digest header) after the run — the artifact CI uploads when a
    determinism check fails.  :func:`repro.net.shard.run_multi_ap_sharded`
    produces a byte-identical report and trace digest by running the
    same process stack sharded across worker processes.

    ``strategy`` (registry name or fresh instance; see
    :mod:`repro.net.scenario.backoff`) swaps the per-cell backoff rule.
    A keyword, not a config field, so default-path report pickles stay
    byte-identical; ``None``/``"adaptive-p"`` reproduce the seed run
    bit for bit.  Only the default strategy is shardable — the sharded
    engine rejects others loudly.
    """
    # Late import: scenario builds on this module (no import cycle).
    from repro.net.scenario.backoff import AdaptivePStrategy, resolve_strategy

    strategy = resolve_strategy(strategy)
    if (
        isinstance(strategy, AdaptivePStrategy)
        and strategy.transmit_probability is None
    ):
        # The metro MAC has no fixed-p knob; the default strategy IS
        # the inline path — resolve to it so the draw arithmetic is
        # the seed's own code.
        strategy = None
    sim = Simulator(seed=seed, trace_capacity=config.trace_capacity)
    parts = _build_metro(sim, config, strategy=strategy)
    _run_metro(sim, parts)
    report = _finalize_metro(sim, parts)
    if trace_path is not None:
        sim.trace.dump(trace_path)
    return report
