"""Flit-trace record/replay: a versioned on-disk workload format.

A *trace* is the generation-ordered sequence of ``(cycle, core, bank)``
request records recovered from any run's ``record_flits`` flit log:
sorting the log by flit id restores generation order (flit ids are
assigned cycle by cycle, cores ascending, arrivals sequential), and each
flit's ``created`` cycle, issuing core and destination bank are exactly
the three decisions the workload layer made for it.  Replaying a trace
therefore re-asks the recorded workload questions — *when* does each core
generate (:class:`TraceInjectionProcess`) and *where* does the request go
(:class:`TracePattern`) — with no randomness anywhere, so every engine
reproduces the same flit log from the same file.

Only flits that **completed** within the recorded run appear in its flit
log, so a trace is the completed subset of the original offered load;
requests still in flight when the recording window closed are not part
of the trace.  Both replay components are registered under the name
``"trace"`` with a *required* ``path`` parameter and must be paired:
the injector re-injects the recorded per-``(cycle, core)`` counts and
the pattern pops that core's recorded destinations in order, so using
one without the other exhausts or starves the per-core queues (and says
so in the error message).

On-disk schema (version 1)
--------------------------

gzip-compressed text.  Line 1 is a JSON header::

    {"format": "mempool-trace", "version": 1, "num_cores": ..,
     "num_banks": .., "records": .., "cycles": .., "sha256": "..",
     "meta": {..}}

followed by one compact JSON line ``[cycle,core,bank]`` per record, in
generation order.  ``sha256`` is the hex digest of the newline-joined
record lines — the trace's *content hash*, used both to detect a file
modified after recording and as the content-addressed component of
experiment cache keys (:func:`trace_sha` reads it from the header alone,
without parsing the payload).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.config import MemPoolConfig
from repro.workloads.base import DestinationPattern, InjectionProcess
from repro.workloads.registry import register_injector, register_pattern

#: Magic string of the header's ``format`` field.
TRACE_FORMAT = "mempool-trace"
#: Newest schema version this module writes and reads.
TRACE_VERSION = 1


class TraceFormatError(ValueError):
    """A trace file is missing, malformed, truncated or corrupt.

    Every instance names the offending path and says what was expected,
    so a bad ``--trace`` argument reads as a correction, not a stack
    trace from deep inside a worker process.
    """


@dataclass(frozen=True)
class TraceData:
    """One fully loaded and verified trace (immutable, shareable).

    The three record arrays are parallel and in generation order.  The
    replay components share one :class:`TraceData` per file (see
    :func:`load_trace`) but own their per-instance replay cursors, so
    simulations replaying the same trace never alias state.
    """

    path: str
    num_cores: int
    num_banks: int
    cycles: int
    sha256: str
    meta: Mapping[str, Any]
    cycle: np.ndarray
    core: np.ndarray
    bank: np.ndarray

    @property
    def num_records(self) -> int:
        """Number of recorded requests."""
        return int(self.cycle.shape[0])

    @property
    def mean_rate(self) -> float:
        """Recorded offered load in requests per core per cycle."""
        if self.cycles <= 0 or self.num_cores <= 0:
            return 0.0
        return self.num_records / (self.num_cores * self.cycles)


def records_from_flit_log(
    flit_log: Sequence[tuple[int, int, int, int, int, int]],
) -> list[tuple[int, int, int]]:
    """Generation-ordered ``(cycle, core, bank)`` records of a flit log.

    The log arrives in *completion* order; sorting by flit id (the first
    tuple field) restores generation order, since ids are assigned as
    flits are generated.
    """
    return [
        (created, core, bank)
        for _flit_id, core, bank, created, _injected, _completed in sorted(flit_log)
    ]


def _payload_lines(records: Iterable[tuple[int, int, int]]) -> list[str]:
    return [
        json.dumps([int(cycle), int(core), int(bank)], separators=(",", ":"))
        for cycle, core, bank in records
    ]


def write_trace(
    path: str,
    records: Sequence[tuple[int, int, int]],
    *,
    num_cores: int,
    num_banks: int,
    meta: Mapping[str, Any] | None = None,
    force: bool = False,
) -> str:
    """Write ``records`` as a version-1 trace file and return its sha256.

    Refuses to overwrite an existing file unless ``force`` is true — a
    recorded trace is an experiment input other cache keys may already
    reference, so clobbering one silently would invalidate results.
    """
    if os.path.exists(path) and not force:
        raise FileExistsError(
            f"trace file {path!r} already exists; pass --force (or "
            "force=True) to overwrite it"
        )
    lines = _payload_lines(records)
    sha = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "num_cores": int(num_cores),
        "num_banks": int(num_banks),
        "records": len(lines),
        "cycles": (max(cycle for cycle, _, _ in records) + 1) if records else 0,
        "sha256": sha,
        "meta": dict(meta or {}),
    }
    with gzip.open(path, "wt", encoding="utf-8") as stream:
        stream.write(json.dumps(header, sort_keys=True))
        for line in lines:
            stream.write("\n")
            stream.write(line)
    return sha


def record_trace(
    result,
    config: MemPoolConfig,
    path: str,
    *,
    meta: Mapping[str, Any] | None = None,
    force: bool = False,
) -> str:
    """Write the trace of a ``record_flits=True`` traffic result.

    ``result`` is a :class:`~repro.traffic.simulation.TrafficResult`;
    ``config`` is the cluster configuration it ran on (the trace header
    pins ``num_cores``/``num_banks`` so replay rejects a mismatched
    cluster).  Returns the content sha256.
    """
    if result.flit_log is None:
        raise ValueError(
            "the result carries no flit log; run the simulation with "
            "record_flits=True to record a trace"
        )
    return write_trace(
        path,
        records_from_flit_log(result.flit_log),
        num_cores=config.num_cores,
        num_banks=config.num_banks,
        meta=meta,
        force=force,
    )


def _read_lines(path: str) -> list[str]:
    try:
        with gzip.open(path, "rt", encoding="utf-8") as stream:
            return stream.read().split("\n")
    except FileNotFoundError:
        raise TraceFormatError(f"trace file {path!r} does not exist") from None
    except (OSError, EOFError, UnicodeDecodeError) as error:
        raise TraceFormatError(
            f"trace file {path!r} is not a readable gzip trace "
            f"({error}); expected the {TRACE_FORMAT!r} format written by "
            "'python -m repro.experiments trace record'"
        ) from None


def _parse_header(path: str, line: str) -> dict:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as error:
        raise TraceFormatError(
            f"trace file {path!r} has a malformed header line ({error}); "
            f"expected a JSON object with format={TRACE_FORMAT!r}"
        ) from None
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise TraceFormatError(
            f"trace file {path!r} is not a {TRACE_FORMAT!r} file "
            f"(header format field: {header.get('format') if isinstance(header, dict) else header!r})"
        )
    version = header.get("version")
    if version != TRACE_VERSION:
        raise TraceFormatError(
            f"trace file {path!r} has schema version {version!r}; this "
            f"build reads version {TRACE_VERSION}"
        )
    for key in ("num_cores", "num_banks", "records", "cycles", "sha256"):
        if key not in header:
            raise TraceFormatError(
                f"trace file {path!r} header is missing the {key!r} field"
            )
    return header


def read_trace_header(path: str) -> dict:
    """The parsed, validated header of a trace file (payload left unread).

    Cheap enough for sweep expansion: the ``traces`` experiment derives
    its load label and replay window from ``records``/``cycles``/
    ``num_cores`` without parsing a single record line.
    """
    lines = _read_lines(path)
    return _parse_header(path, lines[0] if lines else "")


def trace_sha(path: str) -> str:
    """The content sha256 of a trace, read from the header alone.

    Experiment cache keys embed this hash so a re-recorded trace re-runs
    every point that consumed it.  The full payload is verified against
    the hash by :func:`load_trace` when the trace is actually replayed.
    """
    return str(read_trace_header(path)["sha256"])


#: Small LRU of loaded traces keyed on (realpath, mtime_ns, size): the
#: pattern and injector of one replay — and every member of a batched
#: sweep over the same file — share one immutable TraceData.
_TRACE_CACHE: dict[tuple[str, int, int], TraceData] = {}
_TRACE_CACHE_LIMIT = 8


def load_trace(path: str) -> TraceData:
    """Load, validate and cache a trace file.

    Raises
    ------
    TraceFormatError
        When the file is missing, not gzip, has a malformed header or
        records, is truncated (fewer records than the header promises),
        or its payload no longer matches the recorded sha256.
    """
    try:
        stat = os.stat(path)
        cache_key = (os.path.realpath(path), stat.st_mtime_ns, stat.st_size)
    except OSError:
        raise TraceFormatError(f"trace file {path!r} does not exist") from None
    cached = _TRACE_CACHE.get(cache_key)
    if cached is not None:
        return cached

    lines = _read_lines(path)
    header = _parse_header(path, lines[0] if lines else "")
    payload = lines[1:]
    # A trailing newline (e.g. from a hand-edited file) would read as one
    # empty record; tolerate exactly one trailing empty line.
    if payload and payload[-1] == "":
        payload.pop()
    expected = int(header["records"])
    if len(payload) != expected:
        raise TraceFormatError(
            f"trace file {path!r} is truncated or padded: header promises "
            f"{expected} records, found {len(payload)}"
        )
    digest = hashlib.sha256("\n".join(payload).encode("utf-8")).hexdigest()
    if digest != header["sha256"]:
        raise TraceFormatError(
            f"trace file {path!r} failed content verification: payload "
            f"sha256 {digest} != recorded {header['sha256']} — the file "
            "was modified after recording; re-record it"
        )
    num_cores = int(header["num_cores"])
    num_banks = int(header["num_banks"])
    cycles = int(header["cycles"])
    cycle = np.empty(expected, dtype=np.int64)
    core = np.empty(expected, dtype=np.int64)
    bank = np.empty(expected, dtype=np.int64)
    for index, line in enumerate(payload):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            raise TraceFormatError(
                f"trace file {path!r} record {index} is not valid JSON: "
                f"{line!r}"
            ) from None
        if (
            not isinstance(record, list)
            or len(record) != 3
            or not all(isinstance(value, int) for value in record)
        ):
            raise TraceFormatError(
                f"trace file {path!r} record {index} must be a "
                f"[cycle, core, bank] integer triple, got {line!r}"
            )
        when, who, where = record
        if not (0 <= when < cycles and 0 <= who < num_cores and 0 <= where < num_banks):
            raise TraceFormatError(
                f"trace file {path!r} record {index} is out of range: "
                f"[cycle={when}, core={who}, bank={where}] vs header "
                f"cycles={cycles}, num_cores={num_cores}, num_banks={num_banks}"
            )
        cycle[index] = when
        core[index] = who
        bank[index] = where
    data = TraceData(
        path=str(path),
        num_cores=num_cores,
        num_banks=num_banks,
        cycles=cycles,
        sha256=str(header["sha256"]),
        meta=dict(header.get("meta") or {}),
        cycle=cycle,
        core=core,
        bank=bank,
    )
    cycle.setflags(write=False)
    core.setflags(write=False)
    bank.setflags(write=False)
    if len(_TRACE_CACHE) >= _TRACE_CACHE_LIMIT:
        _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
    _TRACE_CACHE[cache_key] = data
    return data


def _check_sha(trace: TraceData, sha: str | None) -> None:
    if sha is not None and sha != trace.sha256:
        raise ValueError(
            f"trace file {trace.path!r} has content sha256 "
            f"{trace.sha256} but the experiment was expanded against "
            f"{sha}; the file changed since the sweep was keyed — "
            "re-run the sweep (or re-record the trace)"
        )


class TracePattern(DestinationPattern):
    """Replays the recorded destination of each core's requests, in order.

    Keeps one FIFO destination queue per core (built from the shared
    :class:`TraceData`, cursors per instance).  Asking for more
    destinations than the trace recorded for that core raises — that
    happens exactly when the pattern is driven by anything other than
    its :class:`TraceInjectionProcess` twin.
    """

    name = "trace"

    def __init__(
        self,
        config: MemPoolConfig,
        path: str,
        sha: str | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(config, seed)
        trace = load_trace(path)
        _check_sha(trace, sha)
        if trace.num_cores != config.num_cores or trace.num_banks != config.num_banks:
            raise ValueError(
                f"trace {trace.path!r} was recorded on a "
                f"{trace.num_cores}-core/{trace.num_banks}-bank cluster "
                f"and cannot replay on {config.num_cores} cores/"
                f"{config.num_banks} banks; topologies may differ, sizes "
                "may not"
            )
        self.trace = trace
        queues: list[list[int]] = [[] for _ in range(config.num_cores)]
        for who, where in zip(trace.core.tolist(), trace.bank.tolist()):
            queues[who].append(where)
        self._queues = queues
        self._cursor = [0] * config.num_cores

    def destination(self, core_id: int) -> int:
        """The next recorded destination bank of ``core_id``."""
        cursor = self._cursor[core_id]
        queue = self._queues[core_id]
        if cursor >= len(queue):
            raise ValueError(
                f"trace {self.trace.path!r} is exhausted for core "
                f"{core_id} (recorded {len(queue)} requests); replay "
                "must pair pattern='trace' with injector='trace' on the "
                "same file so injections match the recording"
            )
        self._cursor[core_id] = cursor + 1
        return queue[cursor]

    def destinations(self, core_ids) -> np.ndarray:
        """Batched replay — pops the same per-core queues as the scalar path."""
        cursors = self._cursor
        queues = self._queues
        out: list[int] = []
        append = out.append
        for core in core_ids:
            cursor = cursors[core]
            queue = queues[core]
            if cursor >= len(queue):
                self.destination(int(core))  # raises the canonical error
            cursors[core] = cursor + 1
            append(queue[cursor])
        return np.asarray(out, dtype=np.int64)


class TraceInjectionProcess(InjectionProcess):
    """Re-injects the recorded per-``(cycle, core)`` arrival counts.

    ``injection_rate`` is accepted for registry-signature compatibility
    (the sweep's load axis labels the result) but the offered load is
    defined by the file; :attr:`TraceData.mean_rate` is the honest
    label and is what the ``traces`` experiment passes as the load.
    """

    name = "trace"

    def __init__(
        self,
        num_cores: int,
        injection_rate: float,
        path: str,
        sha: str | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(num_cores, injection_rate, seed)
        trace = load_trace(path)
        _check_sha(trace, sha)
        if trace.num_cores != num_cores:
            raise ValueError(
                f"trace {trace.path!r} was recorded on {trace.num_cores} "
                f"cores and cannot replay on {num_cores}"
            )
        self.trace = trace
        by_cycle: dict[int, dict[int, int]] = {}
        for when, who in zip(trace.cycle.tolist(), trace.core.tolist()):
            counts = by_cycle.setdefault(when, {})
            counts[who] = counts.get(who, 0) + 1
        self._by_cycle = by_cycle
        #: Per recorded cycle, its issuing cores ascending (repeats kept).
        self._sources: dict[int, list[int]] = {
            when: [who for who, count in sorted(counts.items()) for _ in range(count)]
            for when, counts in by_cycle.items()
        }

    def arrivals(self, core_id: int, cycle: int) -> int:
        """The recorded arrival count of ``core_id`` during ``cycle``."""
        counts = self._by_cycle.get(cycle)
        return counts.get(core_id, 0) if counts else 0

    def arrivals_batch(self, start: int, end: int) -> tuple[list[int], list[int]]:
        """The recorded arrivals of ``[start, end)``, cycle-major, cores ascending."""
        sources: list[int] = []
        ends: list[int] = []
        recorded = self._sources
        for cycle in range(start, end):
            cycle_sources = recorded.get(cycle)
            if cycle_sources:
                sources += cycle_sources
            ends.append(len(sources))
        return sources, ends


def _check_path(value: Any) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError("must be a non-empty trace file path string")


def _check_sha_param(value: Any) -> None:
    if not isinstance(value, str) or len(value) != 64:
        raise ValueError("must be a 64-character hex sha256 string")


register_pattern(
    "trace", TracePattern,
    "replays recorded per-core destination sequences from a trace file",
    params={"path": _check_path, "sha": _check_sha_param},
    required=("path",),
)
register_injector(
    "trace", TraceInjectionProcess,
    "replays recorded per-(cycle, core) arrival counts from a trace file",
    params={"path": _check_path, "sha": _check_sha_param},
    required=("path",),
)
