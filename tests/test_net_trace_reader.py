"""The streaming trace reader: dump/load symmetry for event traces.

Before :class:`~repro.net.engine.TraceReader`, ``EventTrace`` dumps
were write-only artifacts.  This file pins the closed loop: every line
``iter_jsonl`` writes carries a per-line sha256, the reader verifies
each line against its hash, corrupted/torn lines are *skipped and
counted* (mirroring :class:`~repro.sim.checkpoint.SweepCheckpoint`'s
torn-tail tolerance), and the surviving events reconstruct exactly —
time, seq, proc, kind, and detail, in order.
"""

from __future__ import annotations

import json

import pytest

from repro.net.engine import (
    EventTrace,
    TraceEvent,
    TraceReader,
    TraceReadError,
)


def _make_trace(n: int = 6) -> EventTrace:
    trace = EventTrace(capacity=64)
    for i in range(n):
        trace.append(
            TraceEvent(
                time_s=0.1 * i, seq=i, process="mac", kind="read",
                detail=(("tag", i), ("slot", i * 2)),
            )
        )
    return trace


def _dump(trace: EventTrace, path) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for line in trace.iter_jsonl():
            handle.write(line)


class TestRoundTrip:
    def test_events_reconstruct_exactly(self, tmp_path):
        trace = _make_trace()
        path = tmp_path / "trace.jsonl"
        _dump(trace, path)
        reader = TraceReader(path)
        events = list(reader)
        assert events == trace.tail()
        assert reader.events_read == 6
        assert reader.skipped_lines == 0
        assert reader.unverified_lines == 0

    def test_header_parsed(self, tmp_path):
        trace = _make_trace(3)
        path = tmp_path / "trace.jsonl"
        _dump(trace, path)
        reader = TraceReader(path)
        list(reader)
        assert reader.header is not None
        assert reader.header.total_events == 3
        assert reader.header.digest_sha256 == trace.digest()

    def test_dump_lines_carry_sha256(self, tmp_path):
        trace = _make_trace(2)
        path = tmp_path / "trace.jsonl"
        _dump(trace, path)
        for line in path.read_text().splitlines()[1:]:
            assert "sha256" in json.loads(line)

    def test_detail_order_preserved(self, tmp_path):
        trace = EventTrace(capacity=8)
        trace.append(
            TraceEvent(
                time_s=1.0, seq=0, process="p", kind="k",
                detail=(("z", 1), ("a", 2), ("m", 3)),
            )
        )
        path = tmp_path / "trace.jsonl"
        _dump(trace, path)
        (event,) = list(TraceReader(path))
        assert event.detail == (("z", 1), ("a", 2), ("m", 3))


class TestCorruption:
    def test_corrupt_line_skipped_and_counted(self, tmp_path):
        trace = _make_trace(5)
        path = tmp_path / "trace.jsonl"
        _dump(trace, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace('"tag":2', '"tag":999')
        path.write_text("\n".join(lines) + "\n")
        bad = []
        reader = TraceReader(
            path, on_bad_line=lambda no, raw, why: bad.append((no, why))
        )
        events = list(reader)
        assert len(events) == 4
        assert reader.skipped_lines == 1
        assert bad and "sha256 mismatch" in bad[0][1]

    def test_torn_tail_tolerated(self, tmp_path):
        trace = _make_trace(4)
        path = tmp_path / "trace.jsonl"
        _dump(trace, path)
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # tear the final line
        reader = TraceReader(path)
        events = list(reader)
        assert len(events) == 3
        assert reader.skipped_lines == 1

    def test_unparseable_json_skipped(self, tmp_path):
        trace = _make_trace(3)
        path = tmp_path / "trace.jsonl"
        _dump(trace, path)
        with path.open("a") as handle:
            handle.write("{nonsense\n")
        reader = TraceReader(path)
        assert len(list(reader)) == 3
        assert reader.skipped_lines == 1

    def test_legacy_line_without_sha_counts_unverified(self, tmp_path):
        trace = _make_trace(2)
        path = tmp_path / "trace.jsonl"
        _dump(trace, path)
        legacy = TraceEvent(
            time_s=9.0, seq=99, process="mac", kind="read",
            detail=(("tag", 7),),
        )
        with path.open("a") as handle:
            handle.write(legacy.to_line() + "\n")
        reader = TraceReader(path)
        events = list(reader)
        assert len(events) == 3
        assert events[-1] == legacy
        assert reader.unverified_lines == 1
        assert reader.skipped_lines == 0

    @pytest.mark.parametrize(
        "line",
        [
            '{"t":1.0,"seq":Infinity,"proc":"mac","kind":"read","tag":3}',
            '{"t":' + "9" * 400 + ',"seq":7,"proc":"mac","kind":"read"}',
        ],
    )
    def test_overflowing_core_field_skipped(self, tmp_path, line):
        trace = _make_trace(2)
        path = tmp_path / "trace.jsonl"
        _dump(trace, path)
        with path.open("a") as handle:
            handle.write(line + "\n")
        bad = []
        reader = TraceReader(
            path, on_bad_line=lambda no, raw, why: bad.append(why)
        )
        assert len(list(reader)) == 2
        assert reader.skipped_lines == 1
        assert bad and "core field" in bad[0]


class TestHeaderErrors:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceReadError):
            list(TraceReader(tmp_path / "absent.jsonl"))

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceReadError, match="no header"):
            list(TraceReader(path))

    def test_wrong_format_raises(self, tmp_path):
        path = tmp_path / "alien.jsonl"
        path.write_text('{"trace":"other.format"}\n')
        with pytest.raises(TraceReadError, match="not a repro.net"):
            list(TraceReader(path))

    def test_unparseable_header_raises(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(TraceReadError, match="unparseable header"):
            list(TraceReader(path))

    @pytest.mark.parametrize("field", ["total_events", "ring_capacity"])
    @pytest.mark.parametrize("value", ['"x"', "null", "[1]", "Infinity"])
    def test_non_integer_header_count_raises(self, tmp_path, field, value):
        header = {"trace": '"repro.net"', "total_events": "3",
                  "ring_capacity": "8", "digest_sha256": '""'}
        header[field] = value
        path = tmp_path / "badcount.jsonl"
        path.write_text(
            "{" + ",".join(f'"{k}":{v}' for k, v in header.items()) + "}\n"
        )
        with pytest.raises(TraceReadError, match=f"header field '{field}'"):
            list(TraceReader(path))


class TestDigestUnchanged:
    def test_dump_format_does_not_perturb_digest(self):
        # The running digest hashes to_line() (no per-line sha); adding
        # sha256 to *dumped* lines must not change any digest.
        t1 = _make_trace(5)
        t2 = _make_trace(5)
        assert t1.digest() == t2.digest()
        event = t1.tail()[0]
        assert "sha256" not in json.loads(event.to_line())
        assert "sha256" in json.loads(event.to_dump_line())
