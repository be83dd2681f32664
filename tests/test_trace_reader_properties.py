"""Differential oracle (hypothesis) for the streaming trace reader.

:class:`ReferenceTraceReader` is the trace reader's line loop as it
stood before the reader learned to verify the bytes the writer hashed:
it parses every event line whole, pops ``sha256``, re-renders the rest
through the canonical encoder and hashes that re-rendering.
:class:`~repro.net.engine.TraceReader` must agree with it on any dump,
corrupted or not — events, counters, header and bad-line callbacks —
with one documented exception.  A line whose bytes before a trailing
``,"sha256":"<64 hex>"}`` field hash to that field but are not
canonical JSON is accepted by the reader and dead-lettered as
``sha256 mismatch`` by the reference.  The oracle states that rule
itself (:func:`_self_hashed_canonical`) and checks the reader against
the reference run on a copy of the dump where each such line is
rewritten canonically.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections.abc import Callable, Iterator
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.engine import (
    TraceEvent,
    TraceHeader,
    TraceReader,
    TraceReadError,
)

_CANONICAL = json.JSONEncoder(separators=(",", ":"), allow_nan=True)
_CORE_KEYS = ("t", "seq", "proc", "kind")
_FIELD = ',"sha256":"'


def _reference_event(payload: dict[str, object]) -> TraceEvent:
    """``TraceEvent.from_payload`` as the reference reader called it."""
    try:
        time_s = float(payload["t"])  # type: ignore[arg-type]
        seq = int(payload["seq"])  # type: ignore[arg-type]
        process = str(payload["proc"])
        kind = str(payload["kind"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceReadError(f"event payload missing core field: {exc}")
    detail = tuple(
        (key, value)
        for key, value in payload.items()
        if key not in _CORE_KEYS
    )
    return TraceEvent(
        time_s=time_s, seq=seq, process=process, kind=kind, detail=detail
    )


class ReferenceTraceReader:
    """The parse-everything, re-render-and-hash trace reader."""

    def __init__(
        self,
        path: str | Path,
        *,
        on_bad_line: Callable[[int, str, str], None] | None = None,
    ) -> None:
        self.path = Path(path)
        self.on_bad_line = on_bad_line
        self.header: TraceHeader | None = None
        self.events_read = 0
        self.skipped_lines = 0
        self.unverified_lines = 0

    def _bad(self, line_no: int, raw: str, reason: str) -> None:
        self.skipped_lines += 1
        if self.on_bad_line is not None:
            self.on_bad_line(line_no, raw, reason)

    def __iter__(self) -> Iterator[TraceEvent]:
        if not self.path.exists():
            raise TraceReadError(f"no trace dump at {self.path}")
        with self.path.open("r", encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    if line_no == 1:
                        raise TraceReadError(
                            f"trace {self.path}: unparseable header line"
                        )
                    self._bad(line_no, line, "unparseable (torn write?)")
                    continue
                if not isinstance(payload, dict):
                    self._bad(line_no, line, "not a JSON object")
                    continue
                if line_no == 1:
                    if payload.get("trace") != "repro.net":
                        raise TraceReadError(
                            f"trace {self.path}: not a repro.net trace dump"
                        )
                    self.header = TraceHeader(
                        total_events=int(payload.get("total_events", 0)),
                        ring_capacity=int(payload.get("ring_capacity", 0)),
                        digest_sha256=str(payload.get("digest_sha256", "")),
                    )
                    continue
                recorded = payload.pop("sha256", None)
                if recorded is None:
                    self.unverified_lines += 1
                else:
                    canonical = _CANONICAL.encode(payload)
                    if (
                        hashlib.sha256(canonical.encode()).hexdigest()
                        != recorded
                    ):
                        self._bad(line_no, line, "sha256 mismatch")
                        continue
                try:
                    event = _reference_event(payload)
                except TraceReadError as exc:
                    self._bad(line_no, line, str(exc))
                    continue
                self.events_read += 1
                yield event
        if self.header is None:
            raise TraceReadError(f"trace {self.path} has no header line")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _signed(body: str, digest: str) -> str:
    """``body`` (a JSON object) with a trailing compact sha256 field."""
    return f'{body[:-1]}{_FIELD}{digest}"}}'


def _self_hashed_canonical(line: str) -> str | None:
    """The canonical body of a self-hashed, non-canonical event line.

    The rule: the line ends in ``,"sha256":"<64 chars>"}``; the bytes
    before that field, closed with ``}``, hash to those 64 chars and
    parse (all of them) to a non-empty object without a ``sha256``
    key; and that object's canonical rendering differs from them.
    ``None`` for every other line.
    """
    if len(line) < 77 or not line.endswith('"}') or line[-77:-66] != _FIELD:
        return None
    body = line[:-77] + "}"
    if _sha(body) != line[-66:-2]:
        return None
    try:
        payload, end = json.JSONDecoder().raw_decode(body)
    except json.JSONDecodeError:
        return None
    if (
        end != len(body)
        or not isinstance(payload, dict)
        or not payload
        or "sha256" in payload
    ):
        return None
    canonical = _CANONICAL.encode(payload)
    return None if canonical == body else canonical


# -- random events ------------------------------------------------------------

_FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-07, 2.5e-300,
         5e-324, 1e16, 1.7976931348623157e308, 1.234e+21]
    ),
    st.floats(),
)
_INTS = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**90),
    st.integers(min_value=-(2**90), max_value=-(2**64)),
)
_TEXT = st.one_of(
    st.text(max_size=10),
    st.text(alphabet='"\\\n\r\t /eé☃😀 \x00\x7f', max_size=8),
)
_VALUES = st.one_of(_FLOATS, _INTS, _TEXT, st.booleans(), st.none())
_DETAIL = st.lists(
    st.tuples(
        _TEXT.filter(lambda key: key not in _CORE_KEYS and key != "sha256"),
        _VALUES,
    ),
    max_size=5,
    unique_by=lambda pair: pair[0],
).map(tuple)
_EVENTS = st.builds(
    TraceEvent,
    time_s=_FLOATS,
    seq=_INTS,
    process=_TEXT,
    kind=_TEXT,
    detail=_DETAIL,
)

MUTATIONS = (
    "none", "bit_flip", "exponent", "truncate", "reformat", "sha_first",
    "legacy", "non_object", "blank", "self_hashed", "bad_core", "sha_in_body",
)


@st.composite
def _reformatted(draw, payload: dict[str, object]) -> str:
    """An equivalent JSON rendering of ``payload``, often non-canonical."""
    item_sep, key_sep = draw(
        st.sampled_from([(",", ":"), (", ", ": "), (" ,", ":"), (",", " : ")])
    )
    return json.dumps(
        payload,
        separators=(item_sep, key_sep),
        ensure_ascii=draw(st.booleans()),
        sort_keys=draw(st.booleans()),
    )


@st.composite
def _event_line(draw) -> str:
    """One dumped event line after one random mutation."""
    event = draw(_EVENTS)
    line = event.to_dump_line()
    canonical = event.to_line()
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "bit_flip":
        pos = draw(st.integers(0, len(line) - 1))
        flipped = chr(ord(line[pos]) ^ (1 << draw(st.integers(0, 6))))
        return line[:pos] + flipped + line[pos + 1:]
    if mutation == "exponent":
        spots = [m.start() for m in re.finditer(r"(?<=\d)e(?=[-+]?\d)", line)]
        if spots:
            pos = draw(st.sampled_from(spots))
            return line[:pos] + "E" + line[pos + 1:]
        return line
    if mutation == "truncate":
        return line[: draw(st.integers(0, len(line) - 1))]
    if mutation == "reformat":
        body = draw(_reformatted(event.payload()))
        field = draw(st.sampled_from([_FIELD, ', "sha256": "']))
        return f'{body[:-1]}{field}{_sha(canonical)}"}}'
    if mutation == "sha_first":
        return f'{{"sha256":"{_sha(canonical)}",{canonical[1:]}'
    if mutation == "legacy":
        return canonical
    if mutation == "non_object":
        return draw(st.sampled_from(
            ["[1,2]", '"text"', "3", "null", "true", "[]", f"[{line}]"]
        ))
    if mutation == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if mutation == "self_hashed":
        body = draw(_reformatted(event.payload()))
        # Mostly a reformatted event; sometimes bytes that only parse
        # with data left over, or an empty object.
        body = draw(st.sampled_from([body, body, body + " }", "{}", "{ }"]))
        return _signed(body, _sha(body))
    if mutation == "bad_core":
        payload = event.payload()
        key = draw(st.sampled_from(_CORE_KEYS))
        if draw(st.booleans()):
            del payload[key]
        else:
            payload[key] = draw(st.sampled_from(
                ["x", None, [1], 1.5, math.nan, "12", True, {}, "-0.0"]
            ))
        body = _CANONICAL.encode(payload)
        return _signed(body, _sha(body))
    if mutation == "sha_in_body":
        body = f'{{"sha256":"{_sha(canonical)}",{canonical[1:]}'
        return _signed(body, _sha(body))
    return line


_HEADER = _CANONICAL.encode({
    "trace": "repro.net",
    "total_events": 12,
    "ring_capacity": 64,
    "digest_sha256": "0" * 64,
})


def _write(path: Path, lines: list[str]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.write("\n".join([_HEADER, *lines]) + "\n")


def _run(reader_type, path: Path) -> dict[str, object]:
    bad: list[tuple[int, str, str]] = []
    reader = reader_type(
        path, on_bad_line=lambda no, raw, why: bad.append((no, raw, why))
    )
    events = [event.to_line() for event in reader]
    return {
        "events": events,
        "events_read": reader.events_read,
        "skipped_lines": reader.skipped_lines,
        "unverified_lines": reader.unverified_lines,
        "header": reader.header,
        "bad": bad,
    }


def _canonicalised(src: Path, dst: Path) -> dict[int, str]:
    """Copy ``src`` to ``dst`` with self-hashed lines made canonical.

    Returns the rewritten lines, stripped, by line number.
    """
    rewritten: dict[int, str] = {}
    with src.open("r", encoding="utf-8") as handle:
        raws = list(handle)
    for index, raw in enumerate(raws[1:], start=1):
        canonical = _self_hashed_canonical(raw.strip())
        if canonical is not None:
            rewritten[index + 1] = raw.strip()
            raws[index] = _signed(canonical, _sha(canonical)) + "\n"
    with dst.open("w", encoding="utf-8") as handle:
        handle.writelines(raws)
    return rewritten


_EVENT = '{"t":1.0,"seq":2,"proc":"p","kind":"read"}'
_SPACED = '{"t": 1.0, "seq": 2, "proc": "p", "kind": "read"}'
_SELF_HASHED = _signed(_SPACED, _sha(_SPACED))


class TestReaderMatchesReference:
    @settings(deadline=None, max_examples=300)
    @given(lines=st.lists(_event_line(), min_size=1, max_size=8))
    @example(lines=[_SELF_HASHED])
    @example(lines=[_signed("{ }", _sha("{ }"))])
    @example(lines=[_signed(_EVENT + " }", _sha(_EVENT + " }"))])
    def test_same_verdicts_except_self_hashed_lines(self, lines,
                                                    tmp_path_factory):
        work = tmp_path_factory.mktemp("oracle")
        dump, fixed = work / "dump.jsonl", work / "canonical.jsonl"
        _write(dump, lines)
        rewritten = _canonicalised(dump, fixed)

        got = _run(TraceReader, dump)
        want = _run(ReferenceTraceReader, fixed)
        reference = _run(ReferenceTraceReader, dump)

        # The reader on the dump equals the reference on the dump with
        # each self-hashed line rewritten canonically ...
        for key in ("events", "events_read", "skipped_lines",
                    "unverified_lines", "header"):
            assert got[key] == want[key], key
        assert [b[::2] for b in got["bad"]] == [b[::2] for b in want["bad"]]
        # ... it reports every other line exactly as the reference
        # does, raw text included ...
        assert [b for b in got["bad"] if b[0] not in rewritten] == [
            b for b in reference["bad"] if b[0] not in rewritten
        ]
        # ... and the reference dead-letters exactly the rewritten lines
        # as sha256 mismatches.
        assert [b for b in reference["bad"] if b[0] in rewritten] == [
            (no, raw, "sha256 mismatch") for no, raw in rewritten.items()
        ]

    def test_self_hashed_rule_example(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        _write(path, [_SELF_HASHED])
        assert _self_hashed_canonical(_SELF_HASHED) == _EVENT
        (event,) = list(TraceReader(path))
        assert event == TraceEvent(1.0, 2, "p", "read")
        reference = ReferenceTraceReader(path)
        assert list(reference) == []
        assert reference.skipped_lines == 1
