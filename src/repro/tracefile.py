"""The header of a trace file, read without NumPy.

A sweep over a trace needs only its header — the ``traces`` experiment
derives its load label and replay window from ``records``/``cycles``/
``num_cores``, and every cache key embeds ``sha256`` — so the reader
lives here, outside the eagerly imported :mod:`repro.workloads` package,
and expanding such a sweep loads neither NumPy nor the simulator.
:mod:`repro.workloads.trace` (the on-disk schema, the writer and the
payload loader) imports it back from here.
"""

from __future__ import annotations

import gzip
import json
import zlib

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


def read_trace_lines(path: str) -> list[str]:
    """Every line of a gzip trace file: the header, then the records."""
    try:
        with gzip.open(path, "rt", encoding="utf-8") as stream:
            return stream.read().split("\n")
    except FileNotFoundError:
        raise TraceFormatError(f"trace file {path!r} does not exist") from None
    except (OSError, EOFError, UnicodeDecodeError, zlib.error) as error:
        raise TraceFormatError(
            f"trace file {path!r} is not a readable gzip trace "
            f"({error}); expected the {TRACE_FORMAT!r} format written by "
            "'python -m repro.experiments trace record'"
        ) from None


def parse_trace_header(path: str, line: str) -> dict:
    """The validated header of ``path``, parsed from its first ``line``."""
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
    """The parsed, validated header of a trace file (payload left unparsed)."""
    lines = read_trace_lines(path)
    return parse_trace_header(path, lines[0] if lines else "")


def trace_sha(path: str) -> str:
    """The content sha256 of a trace, read from the header alone.

    Experiment cache keys embed this hash so a re-recorded trace re-runs
    every point that consumed it.  The full payload is verified against
    the hash by :func:`repro.workloads.trace.load_trace` when the trace
    is actually replayed.
    """
    return str(read_trace_header(path)["sha256"])
