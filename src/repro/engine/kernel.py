"""Typed-array transport kernels behind the ``compiled`` engine.

This module is the compute core of :mod:`repro.engine.compiled`: the whole
per-cycle transport pass — head-flit reads from ring-buffer stage queues,
target-space checks, arbiter check-then-grant runs, pops, pushes and
completions — as two flat-array functions (:func:`advance_pass` and
:func:`inject_pass`) that touch nothing but NumPy scalars and therefore
admit two interchangeable implementations:

* a **pure-Python reference**, always available, used when Numba is not
  installed (it is an optional ``[perf]`` extra) or when the
  ``MEMPOOL_JIT=0`` environment opt-out is set;
* a **Numba ``@njit(cache=True)``** build of the *same source functions*,
  selected at import time when :data:`JIT_ENABLED` resolves true.  The
  on-disk cache makes every process after the first pay zero compile time.

Both implementations execute identical statements over identical state, so
engine behaviour — and in particular flit-for-flit equivalence with the
``legacy`` and ``vector`` engines — is independent of which one is active.
The equivalence and fuzz suites run on whichever backend the environment
provides; CI exercises both.

State layout (per-slot arrays are indexed by stage id):

==================  ==========  ==============================================
array               dtype       role
==================  ==========  ==============================================
``qbuf``            int32       concatenated ring storage of all stage queues
``qstart``          int64       per-slot offset of its ring inside ``qbuf``
``qcap``            int32       per-slot ring capacity (== stage depth)
``qhead``, ``qlen``  int32      per-slot ring cursor and fill level
``occupied``        bool        per-slot "buffers >= 1 flit" column
``free_slots``      int32       per-slot elastic-buffer slack
``accepted``        int64       cycle each slot last accepted (one/cycle)
``granted``         int64       cycle each arbiter slot last granted
``move_*``          int32       flattened move chains (see ``MoveTables``)
``row_move``        int32       per-row cursor into the move tables
``row_bank``        int32       per-row destination bank (BANK resolution)
``bank_stage``      int64       bank id -> bank stage id table
==================  ==========  ==============================================

The ring capacity of a slot equals its stage depth, and ``free_slots``
(depth minus fill) is checked before every push, so the rings can never
overflow — the invariant the unit tests in ``tests/test_engine`` pin.
"""

from __future__ import annotations

import os

import numpy as np

#: Move-table target marking the end of the path (mirror of
#: :data:`repro.engine.compile.COMPLETE`, duplicated so the kernels have no
#: imports Numba would need to resolve).
COMPLETE = -1
#: Move-table target marking the destination bank's stage (mirror of
#: :data:`repro.engine.compile.BANK`), resolved against ``row_bank`` on
#: every attempt.
BANK = -2


def _advance_pass(
    candidates,
    qbuf,
    qstart,
    qcap,
    qhead,
    qlen,
    occupied,
    free_slots,
    accepted,
    granted,
    move_target,
    move_arb_start,
    move_arb_end,
    move_arbs,
    move_next,
    row_move,
    row_bank,
    bank_stage,
    completed_cycle,
    completed_out,
    cycle,
):
    """One cycle's transport pass over the pre-gathered candidate slots.

    ``candidates`` is the cycle's occupancy gather over the concatenated
    downstream-first visiting order (``order[occupied[order]]``), computed
    by the caller with one vectorized index.  The gather is exact at visit
    time, not only at gather time: each slot appears exactly once per full
    order and only its own visit pops it, so a slot occupied at the gather
    is still occupied when the loop reaches it — no re-check needed.

    For each candidate: read the head row off the slot's ring, resolve the
    row's current move (``BANK`` targets lazily against ``bank_stage``),
    apply the target-space and one-accept/one-grant-per-cycle rules, and on
    success pop the ring and either push into the target ring or complete
    the row.  Completed row ids are written to ``completed_out`` (in
    completion order); the return value is how many were written.
    """
    count = 0
    for i in range(candidates.shape[0]):
        slot = candidates[i]
        row = qbuf[qstart[slot] + qhead[slot]]
        move = row_move[row]
        target = move_target[move]
        if target == BANK:
            target = bank_stage[row_bank[row]]
        if target >= 0:
            if free_slots[target] == 0 or accepted[target] == cycle:
                continue
        arb_lo = move_arb_start[move]
        arb_hi = move_arb_end[move]
        if arb_hi > arb_lo:
            blocked = False
            for j in range(arb_lo, arb_hi):
                if granted[move_arbs[j]] == cycle:
                    blocked = True
                    break
            if blocked:
                continue
            for j in range(arb_lo, arb_hi):
                granted[move_arbs[j]] = cycle
        head = qhead[slot] + 1
        if head == qcap[slot]:
            head = 0
        qhead[slot] = head
        qlen[slot] -= 1
        free_slots[slot] += 1
        if qlen[slot] == 0:
            occupied[slot] = False
        if target >= 0:
            row_move[row] = move_next[move]
            pos = qhead[target] + qlen[target]
            if pos >= qcap[target]:
                pos -= qcap[target]
            qbuf[qstart[target] + pos] = row
            qlen[target] += 1
            occupied[target] = True
            free_slots[target] -= 1
            accepted[target] = cycle
        else:
            completed_cycle[row] = cycle
            completed_out[count] = row
            count += 1
    return count


def _inject_pass(
    rows,
    flags,
    qbuf,
    qstart,
    qcap,
    qhead,
    qlen,
    occupied,
    free_slots,
    accepted,
    granted,
    move_target,
    move_arb_start,
    move_arb_end,
    move_arbs,
    move_next,
    row_move,
    row_bank,
    bank_stage,
    injected_cycle,
    completed_cycle,
    cycle,
):
    """Attempt the injection hop of every candidate row, in order.

    The array form of the per-core injection walk: ``rows`` holds the
    head row of each non-empty source queue in the cycle's injection
    permutation.  Each row attempts its first hop under the same
    target-space and arbitration rules as :func:`_advance_pass`; accepted
    rows get ``flags`` set (the caller pops the matching source queues),
    their injection cycle stamped, and either enter the target ring or —
    on the degenerate zero-register path — complete immediately.

    Returns ``(injected, entered, completed)``: total accepted rows, rows
    that entered the network, and rows that completed at injection.
    """
    injected = 0
    entered = 0
    completed = 0
    for i in range(rows.shape[0]):
        row = rows[i]
        move = row_move[row]
        target = move_target[move]
        if target == BANK:
            target = bank_stage[row_bank[row]]
        if target >= 0:
            if free_slots[target] == 0 or accepted[target] == cycle:
                continue
        arb_lo = move_arb_start[move]
        arb_hi = move_arb_end[move]
        if arb_hi > arb_lo:
            blocked = False
            for j in range(arb_lo, arb_hi):
                if granted[move_arbs[j]] == cycle:
                    blocked = True
                    break
            if blocked:
                continue
            for j in range(arb_lo, arb_hi):
                granted[move_arbs[j]] = cycle
        injected_cycle[row] = cycle
        flags[i] = True
        injected += 1
        if target >= 0:
            row_move[row] = move_next[move]
            pos = qhead[target] + qlen[target]
            if pos >= qcap[target]:
                pos -= qcap[target]
            qbuf[qstart[target] + pos] = row
            qlen[target] += 1
            occupied[target] = True
            free_slots[target] -= 1
            accepted[target] = cycle
            entered += 1
        else:
            # Degenerate zero-register path: completes at injection (kept
            # for counter parity with the other engines, never logged).
            completed_cycle[row] = cycle
            completed += 1
    return injected, entered, completed


# --------------------------------------------------------------------- #
# Backend selection
# --------------------------------------------------------------------- #

try:  # pragma: no cover - exercised only where the [perf] extra is present
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the baseline environment
    numba = None
    HAVE_NUMBA = False

#: True when the Numba builds of the kernels are active: numba importable
#: and the ``MEMPOOL_JIT=0`` opt-out not set.
JIT_ENABLED = HAVE_NUMBA and os.environ.get("MEMPOOL_JIT", "1") != "0"

if JIT_ENABLED:  # pragma: no cover - exercised only with numba installed
    advance_pass = numba.njit(cache=True)(_advance_pass)
    inject_pass = numba.njit(cache=True)(_inject_pass)
else:
    advance_pass = _advance_pass
    inject_pass = _inject_pass


def warmup_jit() -> bool:
    """Force-compile (or cache-load) both kernels; return whether JIT ran.

    Calls each kernel once over a minimal one-stage state with the exact
    dtypes the engines use, so the first real :meth:`advance` of a run — or
    a CI leg priming the on-disk ``@njit(cache=True)`` cache — does not pay
    the compilation inside a timed region.  A no-op (returning ``False``)
    on the pure-Python backend.
    """
    qbuf = np.zeros(1, dtype=np.int32)
    qstart = np.zeros(2, dtype=np.int64)
    qcap = np.ones(1, dtype=np.int32)
    qhead = np.zeros(1, dtype=np.int32)
    qlen = np.ones(1, dtype=np.int32)
    occupied = np.ones(1, dtype=bool)
    free_slots = np.zeros(1, dtype=np.int32)
    accepted = np.full(1, -1, dtype=np.int64)
    granted = np.full(1, -1, dtype=np.int64)
    move_target = np.full(1, COMPLETE, dtype=np.int32)
    move_arb_start = np.zeros(1, dtype=np.int32)
    move_arb_end = np.zeros(1, dtype=np.int32)
    move_arbs = np.zeros(0, dtype=np.int32)
    move_next = np.full(1, -1, dtype=np.int32)
    row_move = np.zeros(1, dtype=np.int32)
    row_bank = np.zeros(1, dtype=np.int32)
    bank_stage = np.zeros(1, dtype=np.int64)
    injected = np.full(1, -1, dtype=np.int64)
    completed = np.full(1, -1, dtype=np.int64)
    out = np.zeros(1, dtype=np.int64)
    candidates = np.zeros(1, dtype=np.intp)
    advance_pass(
        candidates, qbuf, qstart, qcap, qhead, qlen, occupied, free_slots,
        accepted, granted, move_target, move_arb_start, move_arb_end,
        move_arbs, move_next, row_move, row_bank, bank_stage, completed,
        out, 0,
    )
    qlen[0] = 1
    occupied[0] = True
    free_slots[0] = 0
    rows = np.zeros(1, dtype=np.int64)
    flags = np.zeros(1, dtype=bool)
    inject_pass(
        rows, flags, qbuf, qstart, qcap, qhead, qlen, occupied,
        free_slots, accepted, granted, move_target, move_arb_start,
        move_arb_end, move_arbs, move_next, row_move, row_bank, bank_stage,
        injected, completed, 1,
    )
    return JIT_ENABLED
