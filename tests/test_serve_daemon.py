"""The AP daemon: deterministic replay, chaos robustness, ops endpoint.

The headline contract (ISSUE 8): replaying the same trace through the
same config yields a **byte-identical** final inventory pickle and
identical deterministic counters; under a
:class:`~repro.sim.faults.StreamFaultPlan` the daemon sheds at the
bound, quarantines garbage, and recovers — it never crashes and never
exceeds its queue or memory caps.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.serve.daemon as daemon
from repro.net.engine import TraceEvent
from repro.net.sim import NetSimConfig, run_netsim
from repro.serve.daemon import (
    APDaemon,
    IngestPipeline,
    LiveNetsimSource,
    ServeConfig,
    TraceReplaySource,
    run_service,
)
from repro.serve.events import MalformedEvent, ReadEvent
from repro.sim.faults import StreamFaultPlan, StreamFaultSpec


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """One small netsim trace dump shared by the replay tests."""
    path = tmp_path_factory.mktemp("serve") / "trace.jsonl"
    config = NetSimConfig(
        num_tags=40, num_slots=3000, protocol="aloha", trace_capacity=8192
    )
    run_netsim(config, seed=11, trace_path=path)
    return path


def _replay_config(trace_path, **overrides) -> ServeConfig:
    params: dict[str, object] = dict(
        trace_path=str(trace_path),
        service_rate_hz=0.0,
        status_interval_s=100.0,
    )
    params.update(overrides)
    return ServeConfig(**params)  # type: ignore[arg-type]


class TestServeConfigValidation:
    def test_needs_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            ServeConfig()
        with pytest.raises(ValueError, match="exactly one"):
            ServeConfig(trace_path="x", live=True)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            ServeConfig(live=True, duration_s=0.0)

    def test_bad_policy_and_depth(self):
        with pytest.raises(ValueError, match="policy"):
            ServeConfig(live=True, policy="drop-all")
        with pytest.raises(ValueError, match="queue_depth"):
            ServeConfig(live=True, queue_depth=0)

    def test_bad_port(self):
        with pytest.raises(ValueError, match="port"):
            ServeConfig(live=True, port=70000)

    def test_fractional_rate_limit_burst_rejected(self):
        # Buckets are built lazily per source; a bad burst must fail
        # at config time, not on the first event from a source.
        with pytest.raises(ValueError, match="rate_limit_burst"):
            ServeConfig(live=True, rate_limit_burst=0.5)


class TestDeterministicReplay:
    def test_byte_identical_state_and_counters(self, trace_path):
        r1 = run_service(_replay_config(trace_path))
        r2 = run_service(_replay_config(trace_path))
        assert r1.state_sha256 == r2.state_sha256
        assert json.dumps(r1.counters) == json.dumps(r2.counters)
        assert r1.drained

    def test_all_reads_land(self, trace_path):
        report = run_service(_replay_config(trace_path))
        assert report.counters["events_in"] == 40
        assert report.counters["events_out"] == 40
        assert report.inventory_stats["tracked"] == 40

    def test_checkpoint_written_and_loadable(self, trace_path, tmp_path):
        from repro.serve.inventory import LiveInventory

        ckpt = tmp_path / "inv.ckpt"
        report = run_service(
            _replay_config(trace_path, checkpoint_path=str(ckpt))
        )
        state = LiveInventory.load_checkpoint(ckpt)
        assert len(state["tags"]) == report.inventory_stats["tracked"]

    def test_duration_truncates_virtual_time(self, trace_path):
        full = run_service(_replay_config(trace_path))
        half = run_service(
            _replay_config(trace_path, duration_s=full.clock_s / 2)
        )
        assert half.counters["events_in"] < full.counters["events_in"]

    def test_corrupt_trace_lines_reach_dead_letter(self, trace_path,
                                                   tmp_path):
        mangled = tmp_path / "mangled.jsonl"
        lines = trace_path.read_text().splitlines()
        lines[5] = lines[5][:-10] + '"corrupt"}'
        mangled.write_text("\n".join(lines) + "\n")
        dlq = tmp_path / "dlq.jsonl"
        report = run_service(
            _replay_config(mangled, dead_letter_path=str(dlq))
        )
        assert report.counters["dead_letter"] >= 1
        assert report.dead_letter_lines >= 1
        for record in json.loads(
            "[" + ",".join(dlq.read_text().splitlines()) + "]"
        ):
            assert "reason" in record and "sha256" in record


class TestMalformedReads:
    """A read record whose ids are not integers is dead-lettered."""

    @pytest.mark.parametrize(
        "fields, named",
        [
            ('"slot":"x","tag":3', "'slot'"),
            ('"ap":null,"slot":1,"tag":3', "'ap'"),
            ('"slot":1,"tag":Infinity', "'tag'"),
            ('"slot":1', "no 'tag'"),
        ],
    )
    def test_bad_legacy_read_line_reaches_dead_letter(
        self, trace_path, tmp_path, fields, named
    ):
        lines = trace_path.read_text().splitlines()
        lines.insert(
            3, '{"t":0.01,"seq":9,"proc":"ap/aloha","kind":"read",'
            + fields + "}"
        )
        mangled = tmp_path / "legacy.jsonl"
        mangled.write_text("\n".join(lines) + "\n")
        dlq = tmp_path / "dlq.jsonl"
        report = run_service(
            _replay_config(mangled, dead_letter_path=str(dlq))
        )
        assert report.drained
        assert report.counters["dead_letter"] == 1
        assert report.counters["events_in"] == 40
        (record,) = map(json.loads, dlq.read_text().splitlines())
        assert named in record["reason"]
        assert record["source"] == "trace"

    def test_live_source_passes_malformed_reads_on(self, monkeypatch):
        def one_universe(config, *, seed, trace_sink):
            trace_sink(TraceEvent(0.0, 1, "ap/aloha", "read",
                                  (("slot", 0), ("tag", 5))))
            trace_sink(TraceEvent(0.0, 2, "ap/aloha", "read",
                                  (("slot", "x"), ("tag", 6))))

        monkeypatch.setattr(daemon, "run_netsim", one_universe)
        stream = iter(LiveNetsimSource(
            tags=8, slots=10, offered_rate_hz=1000.0, frame_bits=64
        ))
        (_, good), (_, bad) = next(stream), next(stream)
        assert isinstance(good, ReadEvent) and good.tag_id == 5
        assert isinstance(bad, MalformedEvent)
        assert "'slot'" in bad.reason and bad.source == "netsim"


@pytest.fixture(scope="module")
def churn_trace_path(tmp_path_factory):
    """A seeded persistent-ALOHA churn trace: reads, arrivals, departures."""
    path = tmp_path_factory.mktemp("serve-pins") / "churn.jsonl"
    config = NetSimConfig(
        num_tags=30, num_slots=3000, protocol="aloha", persistent=True,
        arrival_rate_hz=1000.0, mean_dwell_s=0.03,
        stop_when_drained=False, trace_capacity=8192,
    )
    run_netsim(config, seed=5, trace_path=path)
    return path


def _latency(*head: int) -> list[int]:
    """The 35 latency buckets: nine empty, ``head``, then empty."""
    return [0] * 9 + list(head) + [0] * (26 - len(head))


def _counters(*, events_in: int, events_out: int, shed_oldest: int = 0,
              blocked: int = 0, dead_letter: int = 0,
              latency: list[int]) -> dict[str, object]:
    return {
        "events_in": events_in, "events_out": events_out,
        "shed_oldest": shed_oldest, "shed_newest": 0, "rate_limited": 0,
        "blocked": blocked, "dead_letter": dead_letter, "duplicates": 0,
        "reordered": 0, "queue_high_watermark": 8,
        "per_ap_reads": {"0": events_out}, "latency_buckets": latency,
    }


class TestReplayPins:
    """Exact outcomes of four E23-shaped replays of one churn trace.

    The consumer serves 3800 reads/s, about 5x below the trace's
    offered read rate.  The literals were recorded from the serve
    daemon before trace reading was optimised; any change to what a
    replay computes moves at least one of them.
    """

    CHAOS = StreamFaultPlan(
        specs=(
            StreamFaultSpec(kind="flood", at_s=0.03, events=160),
            StreamFaultSpec(kind="malformed", at_s=0.0, duration_s=0.03,
                            probability=0.05),
            StreamFaultSpec(kind="slow", at_s=0.03, duration_s=0.0075,
                            factor=2.0),
        ),
        seed=23,
    )

    PINS = {
        "shed-oldest": (
            {},
            False,
            0.06309715789473301,
            "96098fd8733762600707e756c674fab72f3d3fcc54c7f0dc2a5fc444c83cae78",
            _counters(events_in=1152, events_out=237, shed_oldest=915,
                      latency=_latency(192, 40, 5)),
            0,
        ),
        "block": (
            {"policy": "block"},
            False,
            0.30317829473684954,
            "7410db8d278687d02c10a376f619d222bdb69ca3cb5d504e289d2429d51b1771",
            _counters(events_in=1152, events_out=1152, blocked=1143,
                      latency=_latency(2, 2, 5, 1143)),
            0,
        ),
        "block-capped": (
            {"policy": "block", "max_tags": 12, "ttl_s": 0.01},
            False,
            0.30317829473684954,
            "b754ccdf7e269157ee18400b082d3309cec0d11998fd298517a6e9c18aecbbad",
            _counters(events_in=1152, events_out=1152, blocked=1143,
                      latency=_latency(2, 2, 5, 1143)),
            0,
        ),
        "chaos": (
            {},
            True,
            0.06309715789473301,
            "a8077beb97afb3bd7600b083dc62d6002320e0883e81cea20746e083db016111",
            _counters(events_in=1294, events_out=209, shed_oldest=1085,
                      dead_letter=18, latency=_latency(156, 48, 5)),
            18,
        ),
    }

    @pytest.mark.parametrize("scenario", list(PINS))
    def test_replay_outcome_pinned(self, churn_trace_path, scenario):
        overrides, chaos, clock_s, state, counters, dead = self.PINS[scenario]
        report = run_service(
            _replay_config(
                churn_trace_path, queue_depth=8, service_rate_hz=3800.0,
                **overrides,
            ),
            fault_plan=self.CHAOS if chaos else None,
        )
        assert report.state_sha256 == state
        assert json.dumps(report.counters) == json.dumps(counters)
        assert report.clock_s == clock_s
        assert report.dead_letter_lines == dead

    def test_pinned_trace_has_churn(self, churn_trace_path):
        kinds = {
            json.loads(line)["kind"]
            for line in churn_trace_path.read_text().splitlines()[1:]
        }
        assert {"read", "arrive", "depart"} <= kinds


class TestOverload:
    def test_queue_bounded_and_sheds_counted(self, trace_path):
        report = run_service(
            _replay_config(
                trace_path, queue_depth=4, service_rate_hz=100.0,
                policy="shed-oldest",
            )
        )
        counters = report.counters
        assert counters["queue_high_watermark"] <= 4
        assert counters["shed_oldest"] > 0
        assert (
            counters["events_out"] + counters["shed_oldest"]
            == counters["events_in"]
        )
        assert report.drained

    def test_block_policy_loses_nothing(self, trace_path):
        report = run_service(
            _replay_config(
                trace_path, queue_depth=4, service_rate_hz=100.0,
                policy="block",
            )
        )
        assert report.counters["events_out"] == report.counters["events_in"]
        assert report.counters["blocked"] > 0

    def test_rate_limiter_clips_source(self, trace_path):
        report = run_service(
            _replay_config(trace_path, rate_limit_hz=1.0, rate_limit_burst=5)
        )
        assert report.counters["rate_limited"] > 0
        assert (
            report.counters["events_out"]
            + report.counters["rate_limited"]
            == report.counters["events_in"]
        )


class TestPipelineSemantics:
    @staticmethod
    def _config(**overrides) -> ServeConfig:
        params: dict[str, object] = dict(live=True, service_rate_hz=0.0)
        params.update(overrides)
        return ServeConfig(**params)  # type: ignore[arg-type]

    @staticmethod
    def _read(seq: int, t: float, *, tag: int = 1,
              source: str = "s") -> ReadEvent:
        return ReadEvent(time_s=t, tag_id=tag, ap_id=0, bits=8,
                         source=source, seq=seq)

    def test_duplicates_dropped_within_window(self):
        pipeline = IngestPipeline(self._config(dedup_window=16))
        assert pipeline.ingest(self._read(1, 0.0), 0.0)
        assert not pipeline.ingest(self._read(1, 0.1), 0.1)
        assert pipeline.metrics.duplicates == 1

    def test_dedup_window_slides(self):
        pipeline = IngestPipeline(self._config(dedup_window=2))
        for seq in (1, 2, 3):
            pipeline.ingest(self._read(seq, seq * 0.1), seq * 0.1)
        # seq 1 slid out of the 2-wide window: re-ingesting it passes.
        assert pipeline.ingest(self._read(1, 0.5), 0.5)
        assert pipeline.metrics.duplicates == 0

    def test_dedup_is_per_source(self):
        pipeline = IngestPipeline(self._config())
        assert pipeline.ingest(self._read(1, 0.0, source="a"), 0.0)
        assert pipeline.ingest(self._read(1, 0.1, source="b"), 0.1)
        assert pipeline.metrics.duplicates == 0

    def test_backwards_time_clamped_and_counted(self):
        pipeline = IngestPipeline(self._config())
        pipeline.ingest(self._read(1, 5.0), 5.0)
        pipeline.ingest(self._read(2, 1.0), 1.0)
        assert pipeline.metrics.reordered == 1
        assert pipeline.clock_s >= 5.0

    def test_block_stall_not_counted_as_reordered(self):
        # Block backpressure advances the pipeline clock past in-order
        # arrivals; those are clamped but are NOT reordered events.
        pipeline = IngestPipeline(self._config(
            queue_depth=1, service_rate_hz=10.0, policy="block",
        ))
        for seq in range(5):
            pipeline.ingest(
                self._read(seq, seq * 1e-3, tag=seq), seq * 1e-3
            )
        assert pipeline.metrics.blocked > 0
        assert pipeline.metrics.reordered == 0

    def test_malformed_goes_to_dead_letter_not_queue(self):
        pipeline = IngestPipeline(self._config())
        bad = MalformedEvent(raw="{junk", reason="parse", source="s")
        assert not pipeline.ingest(bad, 0.0)
        assert pipeline.metrics.dead_letter == 1
        assert pipeline.metrics.events_in == 0


class TestStreamChaos:
    def _chaos_plan(self) -> StreamFaultPlan:
        return StreamFaultPlan(
            specs=(
                StreamFaultSpec(kind="flood", at_s=0.005, events=300),
                StreamFaultSpec(kind="stall", at_s=0.010, duration_s=0.05),
                StreamFaultSpec(kind="slow", at_s=0.0, duration_s=0.004,
                                factor=8.0),
                StreamFaultSpec(kind="malformed", at_s=0.0, duration_s=10.0,
                                probability=0.25),
                StreamFaultSpec(kind="duplicate", at_s=0.0, duration_s=10.0,
                                probability=0.25),
                StreamFaultSpec(kind="reorder", at_s=0.0, duration_s=10.0,
                                probability=0.25),
            ),
            seed=77,
        )

    def test_chaos_replay_is_deterministic(self, trace_path):
        def run():
            return run_service(
                _replay_config(trace_path, queue_depth=8,
                               service_rate_hz=2000.0),
                fault_plan=self._chaos_plan(),
            )

        r1, r2 = run(), run()
        assert r1.state_sha256 == r2.state_sha256
        assert json.dumps(r1.counters) == json.dumps(r2.counters)

    def test_every_degradation_path_walked(self, trace_path, tmp_path):
        dlq = tmp_path / "dlq.jsonl"
        report = run_service(
            _replay_config(trace_path, queue_depth=8,
                           service_rate_hz=2000.0,
                           dead_letter_path=str(dlq)),
            fault_plan=self._chaos_plan(),
        )
        counters = report.counters
        assert counters["queue_high_watermark"] <= 8  # flood bounded
        assert counters["shed_oldest"] > 0            # flood shed
        assert counters["dead_letter"] > 0            # malformed quarantined
        assert counters["duplicates"] > 0             # dups dropped
        assert counters["reordered"] > 0              # reorders clamped
        assert report.drained                         # recovered + drained
        assert dlq.exists() and dlq.read_text().strip()

    def test_flood_never_reaches_inventory_cap(self, trace_path):
        report = run_service(
            _replay_config(trace_path, queue_depth=8,
                           service_rate_hz=2000.0, max_tags=30),
            fault_plan=self._chaos_plan(),
        )
        assert report.inventory_stats["tracked"] <= 30
        assert report.inventory_stats["tracked_watermark"] <= 30


class TestLiveNetsimSource:
    def test_yields_paced_unique_reads(self):
        source = LiveNetsimSource(
            tags=8, slots=200, offered_rate_hz=1000.0, frame_bits=64, seed=4
        )
        stream = iter(source)
        pairs = [next(stream) for _ in range(50)]
        times = [t for t, _ in pairs]
        assert times == sorted(times)
        assert times[1] - times[0] == pytest.approx(1e-3)
        seqs = [ev.seq for _, ev in pairs]
        assert len(set(seqs)) == len(seqs)

    def test_universes_use_disjoint_tag_blocks(self):
        source = LiveNetsimSource(
            tags=4, slots=40, offered_rate_hz=1000.0, frame_bits=64, seed=4
        )
        stream = iter(source)
        tags = set()
        for _ in range(500):  # enough to cross a universe boundary
            _, ev = next(stream)
            tags.add(ev.tag_id)
        assert max(tags) >= 4  # second universe's block reached


class TestOpsEndpoint:
    def test_routes_and_draining_readiness(self, trace_path):
        async def scenario():
            config = _replay_config(trace_path, port=0)
            daemon = APDaemon(config)
            # Serve the endpoint manually around a controlled lifecycle.
            await daemon.ops.start()
            port = daemon.ops.port

            async def get(path):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    f"GET {path} HTTP/1.1\r\n\r\n".encode()
                )
                await writer.drain()
                data = await reader.read()
                writer.close()
                head, _, body = data.partition(b"\r\n\r\n")
                return int(head.split()[1]), json.loads(body)

            daemon.state = "running"
            results = {
                "healthz": await get("/healthz"),
                "readyz_up": await get("/readyz"),
                "metrics": await get("/metrics"),
                "missing": await get("/nope"),
            }
            daemon.state = "draining"
            results["readyz_draining"] = await get("/readyz")
            await daemon.ops.stop()
            return results

        results = asyncio.run(scenario())
        assert results["healthz"][0] == 200
        assert results["healthz"][1]["alive"] is True
        assert results["readyz_up"][0] == 200
        assert results["metrics"][0] == 200
        assert "counters" in results["metrics"][1]
        assert results["missing"][0] == 404
        assert results["readyz_draining"][0] == 503

    def test_oversized_request_dropped_quietly(self):
        # A request line beyond the 64 KiB stream limit makes
        # readline raise ValueError; the handler must swallow it (no
        # unhandled task exception) and keep serving new connections.
        import gc

        from repro.serve.health import OpsServer

        async def scenario():
            unhandled: list[dict] = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, ctx: unhandled.append(ctx)
            )
            server = OpsServer(
                snapshot=lambda: {}, state=lambda: "running"
            )
            port = await server.start()

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(b"GET /" + b"x" * 200_000 + b" HTTP/1.1\r\n\r\n")
            await writer.drain()
            dropped = await reader.read()
            writer.close()

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
            await writer.drain()
            alive = await reader.read()
            writer.close()

            await server.stop()
            # Surface any never-retrieved task exception now.
            await asyncio.sleep(0.05)
            gc.collect()
            await asyncio.sleep(0)
            return unhandled, dropped, alive

        unhandled, dropped, alive = asyncio.run(scenario())
        assert unhandled == []
        assert dropped == b""  # connection closed without a response
        assert alive.startswith(b"HTTP/1.1 200")
