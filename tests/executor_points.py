"""Point functions for the executor-loop tests (``test_executor_loop.py``).

Importable by name because pytest puts ``tests/`` on ``sys.path`` and pool
workers are forked from the test process.  Every wait is bounded: a design
that cannot make progress fails the test with ``TimeoutError`` instead of
hanging it.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

#: Upper bound of every wait below, in seconds.
WAIT_S = 10.0

#: The process that imported this module.  A forked worker reports its
#: parent's pid here exactly when the parent imported the module before
#: the fork; a worker that had to import it itself reports its own.
IMPORT_PID = os.getpid()

ERRORS = {"runtime": RuntimeError, "interrupt": KeyboardInterrupt}


def wait_for_files(directory: str, pattern: str, count: int = 1) -> None:
    """Return once ``count`` files match ``pattern`` under ``directory``."""
    deadline = time.monotonic() + WAIT_S
    while len(list(Path(directory).glob(pattern))) < count:
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"fewer than {count} {pattern!r} under {directory} after {WAIT_S} s"
            )
        time.sleep(0.005)


def pids(*, index: int) -> tuple[int, int]:
    """``(pid that imported this module, pid running this point)``."""
    del index  # only makes the specs of one sweep distinct
    return IMPORT_PID, os.getpid()


def multiply_and_touch(*, a: float, b: float, touch: str) -> float:
    """Create the file ``touch``, then return ``a * b``."""
    Path(touch).touch()
    return a * b


def multiply_when(*, a: float, b: float, directory: str, pattern: str) -> float:
    """Return ``a * b`` once a file matches (see :func:`wait_for_files`)."""
    wait_for_files(directory, pattern)
    return a * b


def fail(*, error: str) -> None:
    """Raise the exception type named ``error`` with the message ``point failed``."""
    raise ERRORS[error]("point failed")


def fail_when(*, directory: str, pattern: str, count: int) -> None:
    """Raise ``RuntimeError("point failed")`` once ``count`` files match."""
    wait_for_files(directory, pattern, count)
    raise RuntimeError("point failed")
