"""Tiny arithmetic point functions for doctests, tests and first contact.

Real experiments register point functions the same way (module-level,
keyword-only, picklable arguments); these exist so the engine can be
demonstrated without running a simulation.
"""

from __future__ import annotations


def multiply(*, a: float, b: float = 1.0) -> float:
    """Return ``a * b``.

    Examples
    --------
    >>> multiply(a=6, b=7)
    42
    """
    return a * b


def power(*, base: float, exponent: int = 2) -> float:
    """Return ``base ** exponent``.

    Examples
    --------
    >>> power(base=3)
    9
    """
    return base**exponent


def slow_multiply(*, a: float, b: float = 1.0, delay_s: float = 0.0) -> float:
    """Return ``a * b`` after sleeping ``delay_s`` seconds.

    Exists for the scheduling tests: a deliberately slow point exposes
    head-of-line blocking (a fast point finishing behind a slow one must
    still report progress first) and gives a cancellation something to
    interrupt.

    Examples
    --------
    >>> slow_multiply(a=6, b=7)
    42
    """
    import time

    if delay_s:
        time.sleep(delay_s)
    return a * b


def crash_once(*, flag_path: str, a: float, b: float = 1.0) -> float:
    """Return ``a * b`` — but SIGKILL the process on the first-ever call.

    The first process to execute the point creates ``flag_path`` and kills
    itself (no exception, no cleanup — exactly like an OOM kill); later
    calls see the flag and complete normally.  Run on a process pool by
    ``tests/test_executor_loop.py::TestDeadWorker``, which checks that the
    sweep fails in bounded time naming a lost point, and that a rerun
    resumes from the points stored before the crash.
    """
    import os
    import signal
    from pathlib import Path

    flag = Path(flag_path)
    if not flag.exists():
        flag.write_text(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return a * b
