"""Batched columnar execution: many fixed-order lanes, one numpy step loop.

:mod:`repro.simulator.columnar` made a *single* run array-native, but its
scan is still a Python loop over that one instance's tasks — a sweep of
10^4 instances pays 10^4 kernel entries.  This module stacks a
*homogeneous group* of fixed-order runs ("lanes") into padded 2-D planes
(``(n_tasks_max, n_lanes)`` float64, one column per lane) and advances the
fixed-order recurrence **across all lanes per step**: each simulated step
executes a constant number of vectorized elementwise operations over the
whole lane axis instead of one Python iteration per lane per task.

Bit-identity is inherited, not re-proven
----------------------------------------
Every per-step expression is the elementwise image of the scalar
recurrence in :func:`repro.simulator.columnar._fixed_scan_single_link`
(and of the generic two-order loop for ``comp_order`` lanes): the same
floats meet the same operators in the same per-lane order, so each lane's
schedule is float-for-float the one ``simulate_columnar`` — and therefore
the object kernel — produces.  The one structural trick is *zombie
padding*: a lane that finishes early (ragged batch), is infeasible
upfront, or deadlocks mid-run keeps evolving on zero-cost padded tasks
with an infinite memory limit, so the hot loop needs no per-lane alive
mask; its outputs are discarded and its captured
:class:`~repro.simulator.engine.InfeasibleOrderError` /
:class:`~repro.simulator.engine.DeadlockError` — the kernel's own classes
with the kernel's exact messages — is re-raised (or returned) at unpack.

The release ledger vectorizes the same way: per lane, computation finish
times land in a column of a ``(n+1, n_lanes)`` plane (non-decreasing by
construction) and are consumed by an integer cursor vector; the drain and
memory-wait loops pop *one release per masked lane per iteration*, which
preserves each lane's exact pop order while amortising the Python-level
iteration across every lane that needs one.

Lanes with ``capacity == inf`` ride the same loop: their fit limits are
``+inf`` so the wait branch never fires, and the remaining arithmetic is
operand-for-operand the unconstrained chain.

Supported lanes are the sweep hot path: one link, one CPU, no release
dates, a :class:`~repro.simulator.policies.FixedOrderPolicy` (optionally
with the Proposition 1 ``comp_order`` second order), no event recording.
:func:`~repro.simulator.columnar.plan_engine` reports why a run cannot join
a batch; the sweep engine (:mod:`repro.api.engine`) groups eligible lanes
and falls back per-instance for everything else.  The plane runs only on
request (``engine="batched"`` or ``REPRO_ENGINE=batched``): ``"auto"``
plans the columnar kernel instead.
"""

from __future__ import annotations

import gc
import math
from array import array
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from ..core.validation import TOLERANCE
from ..obs import spans as _obs
from ..obs.stats import KernelStats
from .columnar import (
    _columnar_schedule,
    _fixed_order_indices,
    columnar_view,
    plan_engine,
)
from .resources import DEFAULT_MACHINE, MachineModel

__all__ = [
    "BatchedPlane",
    "BatchRun",
    "simulate_batched",
    "simulate_batched_outcomes",
]

#: One run to batch: ``(instance, policy)`` or ``(instance, policy, comp_order)``.
BatchRun = tuple


@contextmanager
def _gc_paused():
    """Suspend the cyclic GC for a bounded batch operation.

    A wide pack/scan allocates plane buffers while the process may hold
    millions of tracked ``Task`` objects; each incidental generation-2
    collection then walks them all (measured: ~5x the entire pack cost at
    1024 lanes).  The batch itself creates no reference cycles, so pausing
    collection — not collection *tracking* — is safe and strictly bounded.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class _Lane:
    """Resolved per-lane inputs: view, placement order, optional comp order,
    capacity, and any upfront infeasibility captured at pack time."""

    __slots__ = ("view", "order", "comp_idx", "capacity", "error", "order_ix", "comp_ix")

    def __init__(self, view, order, comp_idx, capacity, error):
        self.view = view
        self.order = order
        self.comp_idx = comp_idx
        self.capacity = capacity
        self.error = error
        #: ``order``/``comp_idx`` as ``intp`` arrays, filled while staging:
        #: pack needs the arrays anyway, and unpack reuses them so the
        #: per-lane list→array conversion is paid once, not per output row.
        self.order_ix = None
        self.comp_ix = None


class BatchedPlane:
    """A packed group of homogeneous fixed-order runs.

    ``pack`` gathers each lane's columns into placement order and stacks
    them as ``(n_tasks_max, n_lanes)`` planes — C-order, so the per-step
    row slices the scan touches are contiguous.  Ragged lanes are padded
    with zero-cost tasks and ``+inf`` fit limits (see the module notes on
    zombie padding); upfront-infeasible lanes contribute an all-padding
    column and carry their error to unpack.
    """

    __slots__ = (
        "lanes",
        "n_steps",
        "comm_p",
        "comp_p",
        "mem_p",
        "fit_caps",
        "ledger_mask",
        "has_comp_order",
        "place_pos_p",
        "comp_dur_p",
        "mem_rel_p",
    )

    @classmethod
    def pack(
        cls, runs: Sequence[BatchRun], *, machine: MachineModel | None = None
    ) -> "BatchedPlane":
        with _gc_paused():
            return cls._pack(runs, machine)

    @classmethod
    def _pack(
        cls, runs: Sequence[BatchRun], machine: MachineModel | None
    ) -> "BatchedPlane":
        from .engine import InfeasibleOrderError, resolve_order

        machine = DEFAULT_MACHINE if machine is None else machine
        lanes: list[_Lane] = []
        for run in runs:
            instance, policy = run[0], run[1]
            comp_order = run[2] if len(run) > 2 else None
            ran, reason = plan_engine(
                instance, policy, engine="batched", machine=machine, comp_order=comp_order
            )
            if ran != "batched":
                raise ValueError(f"batched engine cannot run this lane: {reason}")
            view = columnar_view(instance)
            order = _fixed_order_indices(view, policy)
            if order is None:
                raise ValueError(
                    "batched engine cannot run this lane: the fixed order "
                    "does not cover the instance's own tasks"
                )
            order_ix = None
            if not isinstance(order, range):
                # Cache the intp form on the (immutable) policy beside
                # ``_columnar_order`` — re-packing the same policy (racing,
                # benchmark reps) skips the list->array conversion.
                cached = getattr(policy, "_batched_order_ix", None)
                if cached is not None and cached[0] is order:
                    order_ix = cached[1]
                else:
                    order_ix = np.asarray(order, dtype=np.intp)
                    try:
                        object.__setattr__(
                            policy, "_batched_order_ix", (order, order_ix)
                        )
                    except AttributeError:  # pragma: no cover - slotted policy
                        pass
            comp_idx: list[int] | None = None
            if comp_order is not None:
                resolved = resolve_order(instance, comp_order)
                index = view.index
                comp_idx = [index[t.name] for t in resolved]
            capacity = machine.effective_capacity(instance.capacity)
            error: Exception | None = None
            # Upfront feasibility — same walk, same first offender, same
            # message as the scalar kernels; captured, not raised, so one
            # infeasible lane cannot sink its batch.
            if len(view) and math.isfinite(capacity):
                over = view.memory > capacity + TOLERANCE
                if bool(over.any()):
                    i = int(np.argmax(over))
                    error = InfeasibleOrderError(
                        f"task {view.names[i]!r} needs {view.memory_list[i]:g} "
                        f"memory but capacity is {capacity:g}"
                    )
            lane = _Lane(view, order, comp_idx, capacity, error)
            lane.order_ix = order_ix
            lanes.append(lane)

        plane = cls.__new__(cls)
        plane.lanes = lanes
        n_lanes = len(lanes)
        n_steps = max((len(lane.view) for lane in lanes if lane.error is None), default=0)
        plane.n_steps = n_steps
        plane.has_comp_order = any(
            lane.comp_idx is not None for lane in lanes if lane.error is None
        )
        # Stage lane-major: each lane fills a *contiguous row*, then one
        # transpose-copy per plane yields the step-major layout the scan
        # wants — far cheaper than 6 strided column writes per lane.
        comm_b = np.zeros((n_lanes, n_steps))
        comp_b = np.zeros((n_lanes, n_steps))
        mem_b = np.zeros((n_lanes, n_steps))
        # Per-lane fit ceiling (``capacity + slack``, ``inf`` when the lane
        # can never wait).  The scan derives each step's element-wise fit
        # limit as ``fit_caps - mem_p[t]`` — one broadcast subtract per step
        # instead of staging and transposing a whole limit plane.
        fit_caps = np.full(n_lanes, math.inf)
        ledger_mask = np.zeros(n_lanes, dtype=bool)
        if plane.has_comp_order:
            # Placement position of each lane's j-th computation; the
            # sentinel row (and value) keeps drained chains unready forever.
            pos_b = np.full((n_lanes, n_steps + 1), n_steps + 1, dtype=np.int64)
            cdur_b = np.zeros((n_lanes, n_steps))
            mrel_b = np.zeros((n_lanes, n_steps))
        for l, lane in enumerate(lanes):
            if lane.error is not None:
                continue  # all-padding zombie column
            view = lane.view
            n = len(view)
            if n == 0:
                continue
            order = lane.order
            identity = isinstance(order, range)
            if identity:
                comm_b[l, :n] = view.comm
                comp_b[l, :n] = view.comp
                mem_g = view.memory
            else:
                order_np = lane.order_ix
                if order_np is None:
                    order_np = np.asarray(order, dtype=np.intp)
                    lane.order_ix = order_np
                comm_b[l, :n] = view.comm[order_np]
                comp_b[l, :n] = view.comp[order_np]
                mem_g = view.memory[order_np]
            mem_b[l, :n] = mem_g
            capacity = lane.capacity
            if math.isfinite(capacity):
                slack = max(TOLERANCE, TOLERANCE * capacity)
                fit_caps[l] = capacity + slack
                ledger_mask[l] = True
            if plane.has_comp_order:
                if lane.comp_idx is None:
                    pos_b[l, :n] = np.arange(n)
                    cdur_b[l, :n] = comp_b[l, :n]
                    mrel_b[l, :n] = mem_b[l, :n]
                else:
                    seq_np = np.asarray(lane.comp_idx, dtype=np.intp)
                    lane.comp_ix = seq_np
                    inv = np.empty(n, dtype=np.int64)
                    if identity:
                        order_np = np.arange(n, dtype=np.intp)
                    inv[order_np] = np.arange(n)
                    pos_b[l, :n] = inv[seq_np]
                    cdur_b[l, :n] = view.comp[seq_np]
                    mrel_b[l, :n] = view.memory[seq_np]
                # Zombie rows chain identity computations after the lane ends.
                pos_b[l, n : n_steps] = np.arange(n, n_steps)
        plane.comm_p = np.ascontiguousarray(comm_b.T)
        plane.comp_p = np.ascontiguousarray(comp_b.T)
        plane.mem_p = np.ascontiguousarray(mem_b.T)
        plane.fit_caps = fit_caps
        plane.ledger_mask = ledger_mask
        if plane.has_comp_order:
            plane.place_pos_p = np.ascontiguousarray(pos_b.T)
            plane.comp_dur_p = np.ascontiguousarray(cdur_b.T)
            plane.mem_rel_p = np.ascontiguousarray(mrel_b.T)
        else:
            plane.place_pos_p = None
            plane.comp_dur_p = None
            plane.mem_rel_p = plane.mem_p  # releases in placement order
        return plane

    def run(self) -> list:
        """Advance every lane to completion; one outcome per lane, in lane
        order — a :class:`~repro.simulator.engine.SimulationResult` or the
        lane's captured kernel error."""
        with _gc_paused():
            return self._run()

    def _run(self) -> list:
        from .engine import SimulationResult

        traced = _obs.is_enabled()
        run_started = _obs.now() if traced else 0.0
        if self.has_comp_order:
            comm_plane, comp_plane, mw, errors = self._scan_general()
        else:
            comm_plane, comp_plane, mw, errors = self._scan_plain()
        # Lane-major copies: unpack pulls one lane at a time, and a column
        # walk over the step-major planes touches a cache line per element.
        comm_t = np.ascontiguousarray(comm_plane.T)
        comp_t = np.ascontiguousarray(comp_plane.T)
        outcomes: list = []
        for l, lane in enumerate(self.lanes):
            error = lane.error if lane.error is not None else errors.get(l)
            if error is not None:
                outcomes.append(error)
                continue
            view = lane.view
            n = len(view)
            order_key = lane.order if lane.order_ix is None else lane.order_ix
            comm_starts = _scatter_column(order_key, n, comm_t[l, :n])
            if lane.comp_idx is None:
                comp_key = order_key
            else:
                comp_key = lane.comp_idx if lane.comp_ix is None else lane.comp_ix
            comp_starts = _scatter_column(comp_key, n, comp_t[l, :n])
            stats = KernelStats(
                engine="batched",
                tasks=n,
                events=6 * n,
                memory_wait_s=float(mw[l]),
                ledger_ops=2 * n,
            )
            outcomes.append(
                SimulationResult(
                    schedule=_columnar_schedule(view, lane.order, comm_starts, comp_starts),
                    trace=None,
                    engine="batched",
                    stats=stats,
                )
            )
        if traced:
            _obs.record_span(
                "batched.scan",
                run_started,
                _obs.now(),
                lanes=len(self.lanes),
                steps=self.n_steps,
                mode="two-order" if self.has_comp_order else "fixed",
            )
        return outcomes

    # ----------------------------------------------------------------- #
    # The scans
    # ----------------------------------------------------------------- #
    def _scan_plain(self):
        """All-lanes step loop for plain fixed-order lanes (computations in
        placement order).  Elementwise image of
        ``columnar._fixed_scan_single_link`` — see the module docstring.

        Two structural facts keep the per-step op count minimal:

        * ``time == link_avail`` at the top of every step: each placement
          commits ``link_avail = start + c`` with ``start >= time``, and the
          scalar kernel opens the next step with ``time = max(time,
          link_avail)``.  The clock therefore never needs its own array —
          ``link_avail`` *is* the clock, and the transfer-start row is a
          plain copy (``max(start_at, link_avail) == start_at`` whenever a
          wait fired, because popped releases sit beyond the horizon).
        * Lanes that can never wait (infinite capacity, upfront-infeasible
          zombies) park their ledger cursor on the sentinel always-``inf``
          row, so their ``next_release`` stays ``+inf`` and every drain /
          wait mask excludes them with no per-step masking cost.

        The ledger cursor is kept *flattened* (``row * n_lanes + lane``) so
        every ledger read is a single flat ``np.take`` into a preallocated
        buffer instead of 2-D advanced indexing; all per-step temporaries
        are preallocated — the loop body allocates nothing.
        """
        n_steps = self.n_steps
        n_lanes = len(self.lanes)
        comm_p = self.comm_p
        comp_p = self.comp_p
        mem_p = self.mem_p
        fit_caps = self.fit_caps
        inf = math.inf

        comm_plane = np.empty((n_steps, n_lanes))
        comp_plane = np.empty((n_steps, n_lanes))
        mw = np.zeros(n_lanes)
        errors: dict[int, Exception] = {}
        link_avail = np.zeros(n_lanes)
        cpu_avail = np.zeros(n_lanes)

        ledger_mask = self.ledger_mask
        if not ledger_mask.any():
            # No lane can ever wait: the whole batch is the unconstrained
            # chain — four vector ops per step, no ledger at all.  (Same
            # floats: with ``limit == +inf`` the fit checks never fire and
            # ``used`` is never read, so skipping them is unobservable.)
            for t in range(n_steps):
                np.copyto(comm_plane[t], link_avail)
                np.add(comm_plane[t], comm_p[t], link_avail)
                np.maximum(link_avail, cpu_avail, out=comp_plane[t])
                np.add(comp_plane[t], comp_p[t], cpu_avail)
            return comm_plane, comp_plane, mw, errors

        mem_flat = mem_p.ravel()
        rel_p = np.full((n_steps + 1, n_lanes), inf)
        rel_flat = rel_p.ravel()
        used = np.zeros(n_lanes)
        #: ``next_release[l] == rel_flat[cursor_f[l]]`` is a loop invariant:
        #: un-chained rows hold ``inf``, so the cache equals the scalar
        #: kernel's ``rel_time[rel_cursor] if rel_cursor < rel_count else inf``
        #: and refreshing it is always one unmasked flat take.
        next_release = np.full(n_lanes, inf)
        #: flat ledger cursor: starts at row 0, advances a whole row per pop.
        cursor_f = np.arange(n_lanes)
        if not ledger_mask.all():
            cursor_f[~ledger_mask] += n_steps * n_lanes  # park on sentinel row

        # Below this many masked lanes a vector iteration costs more than
        # finishing the stragglers with scalar pops (measured crossover —
        # roughly width-independent: wider vector ops cost more, but the
        # scalar per-lane cost is constant).
        scalar_cutoff = min(16, n_lanes)
        horizon = np.empty(n_lanes)
        limit = np.empty(n_lanes)
        start_at = np.empty(n_lanes)
        diff = np.empty(n_lanes)
        gather = np.empty(n_lanes)
        ibuf = np.empty(n_lanes, dtype=np.int64)
        dmask = np.empty(n_lanes, dtype=bool)
        wmask = np.empty(n_lanes, dtype=bool)
        m2 = np.empty(n_lanes, dtype=bool)
        count_nonzero = np.count_nonzero
        mem_item = mem_flat.item
        rel_item = rel_flat.item

        for t in range(n_steps):
            np.add(link_avail, TOLERANCE, horizon)
            # Drain: one release popped per masked lane per iteration — the
            # scalar ledger's exact pop order, amortised across every lane
            # that needs one.  Masked-out lanes subtract an exact 0.0
            # (bit-preserving), which keeps every op on the ufunc fast path.
            np.less_equal(next_release, horizon, dmask)
            pending = count_nonzero(dmask)
            while pending >= scalar_cutoff:
                mem_flat.take(cursor_f, None, gather)
                np.multiply(gather, dmask, gather)
                np.subtract(used, gather, used)
                np.multiply(dmask, n_lanes, ibuf)
                np.add(cursor_f, ibuf, cursor_f)
                rel_flat.take(cursor_f, None, next_release)
                np.less_equal(next_release, horizon, dmask)
                pending = count_nonzero(dmask)
            if pending:
                # Straggler lanes: finish their pops at scalar speed (plain
                # C doubles — the identical arithmetic, without paying a
                # full-width vector op per leftover pop).
                for lane in np.flatnonzero(dmask).tolist():
                    h = horizon.item(lane)
                    u = used.item(lane)
                    cf = int(cursor_f[lane])
                    nr = next_release.item(lane)
                    while nr <= h:
                        u -= mem_item(cf)
                        cf += n_lanes
                        nr = rel_item(cf)
                    used[lane] = u
                    cursor_f[lane] = cf
                    next_release[lane] = nr
            # Derived fit limit for this row (``capacity + slack - mem``);
            # same floats the staged plane held.  Padding steps read
            # ``fit_caps`` itself (``mem == 0``), which never fires: ``used``
            # can only reach ``capacity + slack`` and ``>`` is strict.
            np.subtract(fit_caps, mem_p[t], limit)
            np.greater(used, limit, wmask)
            waiting = count_nonzero(wmask)
            patches = None
            if waiting and waiting < scalar_cutoff:
                # Few waiters: resolve them at scalar speed and patch their
                # transfer starts into the committed row afterwards — no
                # full-width ``start_at`` materialisation, no moved-mask.
                patches = []
                row_f = t * n_lanes
                for lane in np.flatnonzero(wmask).tolist():
                    u = used.item(lane)
                    lim = limit.item(lane)
                    cf = int(cursor_f[lane])
                    nr = next_release.item(lane)
                    dead_f = row_f + lane
                    while True:
                        if cf == dead_f:  # ledger drained: deadlock
                            self._deadlock(lane, t, errors)
                            break
                        release = nr
                        u -= mem_item(cf)
                        cf += n_lanes
                        nr = rel_item(cf)
                        if u <= lim:
                            # Popped releases sit beyond the horizon, so the
                            # start strictly moved: accrue the wait now.
                            mw[lane] += release - link_avail.item(lane)
                            patches.append((lane, release))
                            break
                    used[lane] = u
                    cursor_f[lane] = cf
                    next_release[lane] = nr
                start = link_avail
            elif waiting:
                np.copyto(start_at, link_avail)
                row_f = t * n_lanes
                while waiting >= scalar_cutoff:
                    # A drained ledger that still does not fit is the
                    # kernel's deadlock; capture and zombie the lane.
                    np.equal(cursor_f, row_f, m2)
                    m2 &= wmask
                    if m2.any():
                        for lane in np.flatnonzero(m2).tolist():
                            self._deadlock(lane, t, errors)
                        wmask ^= m2
                        waiting = count_nonzero(wmask)
                        if not waiting:
                            break
                    np.copyto(diff, next_release)  # release instant, pre-pop
                    mem_flat.take(cursor_f, None, gather)
                    np.multiply(gather, wmask, gather)
                    np.subtract(used, gather, used)
                    np.multiply(wmask, n_lanes, ibuf)
                    np.add(cursor_f, ibuf, cursor_f)
                    rel_flat.take(cursor_f, None, next_release)
                    np.less_equal(used, limit, m2)
                    m2 &= wmask
                    np.copyto(start_at, diff, where=m2)
                    wmask ^= m2  # fitted lanes leave the wait set
                    waiting = count_nonzero(wmask)
                if waiting:
                    for lane in np.flatnonzero(wmask).tolist():
                        u = used.item(lane)
                        lim = limit.item(lane)
                        cf = int(cursor_f[lane])
                        nr = next_release.item(lane)
                        dead_f = row_f + lane
                        while True:
                            if cf == dead_f:  # ledger drained: deadlock
                                self._deadlock(lane, t, errors)
                                break
                            release = nr
                            u -= mem_item(cf)
                            cf += n_lanes
                            nr = rel_item(cf)
                            if u <= lim:
                                start_at[lane] = release
                                break
                        used[lane] = u
                        cursor_f[lane] = cf
                        next_release[lane] = nr
                np.greater(start_at, link_avail, m2)
                if m2.any():
                    np.subtract(start_at, link_avail, diff)
                    np.add(mw, diff, out=mw, where=m2)
                start = start_at
            else:
                start = link_avail  # no waits: the start row is the clock
            # Placement: start/end/compute chain, committed row-wise.  The
            # release row doubles as next step's ``cpu_avail`` (same values,
            # contiguous row view) — one write instead of two.
            np.copyto(comm_plane[t], start)
            if patches:
                row = comm_plane[t]
                for lane, moved_start in patches:
                    row[lane] = moved_start
            np.add(comm_plane[t], comm_p[t], link_avail)
            np.add(used, mem_p[t], used)
            np.maximum(link_avail, cpu_avail, out=comp_plane[t])
            rel_row = rel_p[t]
            np.add(comp_plane[t], comp_p[t], rel_row)
            cpu_avail = rel_row
            # Lanes whose cursor sits on the just-written row see the new
            # release; everyone else re-reads their unchanged cache.
            rel_flat.take(cursor_f, None, next_release)
        return comm_plane, comp_plane, mw, errors

    def _deadlock(self, lane: int, t: int, errors: dict) -> None:
        """Capture the lane's kernel-exact deadlock and zombie its column."""
        from .engine import DeadlockError

        view = self.lanes[lane].view
        i = self.lanes[lane].order[t]
        errors[lane] = DeadlockError(
            f"task {view.names[i]!r} can never acquire its memory"
        )
        # The lane never waits again: every future derived limit is +inf.
        # (The current step's limit row is left as-is — the caller drops the
        # lane from the wait mask, so that element is never read again.)
        self.fit_caps[lane] = math.inf

    def _scan_general(self):
        """Step loop for batches containing two-order (``comp_order``)
        lanes: the computation chain advances per lane as transfers land,
        mirroring the generic loop of ``columnar._fixed_order_scan``."""
        from .engine import DeadlockError

        n_steps = self.n_steps
        n_lanes = len(self.lanes)
        comm_p = self.comm_p
        mem_p = self.mem_p
        fit_caps = self.fit_caps
        place_pos_p = self.place_pos_p
        comp_dur_p = self.comp_dur_p
        mem_rel_p = self.mem_rel_p
        inf = math.inf

        comm_plane = np.empty((n_steps, n_lanes))
        end_plane = np.empty((n_steps, n_lanes))
        comp_plane = np.empty((n_steps, n_lanes))  # indexed by comp step
        rel_p = np.full((n_steps + 1, n_lanes), inf)

        time = np.zeros(n_lanes)
        link_avail = np.zeros(n_lanes)
        cpu_avail = np.zeros(n_lanes)
        used = np.zeros(n_lanes)
        mw = np.zeros(n_lanes)
        cursor = np.zeros(n_lanes, dtype=np.int64)
        cc = np.zeros(n_lanes, dtype=np.int64)  # per-lane computations chained
        next_release = np.full(n_lanes, inf)
        lanes_ix = np.arange(n_lanes)

        horizon = np.empty(n_lanes)
        limit = np.empty(n_lanes)
        start_at = np.empty(n_lanes)
        diff = np.empty(n_lanes)
        dmask = np.empty(n_lanes, dtype=bool)
        wmask = np.empty(n_lanes, dtype=bool)
        m2 = np.empty(n_lanes, dtype=bool)
        errors: dict[int, Exception] = {}

        for t in range(n_steps):
            c = comm_p[t]
            m = mem_p[t]
            np.subtract(fit_caps, m, out=limit)  # derived fit limit row
            np.maximum(time, link_avail, out=time)
            np.add(time, TOLERANCE, out=horizon)
            np.less_equal(next_release, horizon, out=dmask)
            while dmask.any():
                np.subtract(used, mem_rel_p[cursor, lanes_ix], out=used, where=dmask)
                np.add(cursor, 1, out=cursor, where=dmask)
                np.copyto(next_release, rel_p[cursor, lanes_ix], where=dmask)
                np.less_equal(next_release, horizon, out=dmask)
            np.copyto(start_at, time)
            np.greater(used, limit, out=wmask)
            if wmask.any():
                while True:
                    np.equal(cursor, cc, out=m2)
                    m2 &= wmask
                    if m2.any():
                        for lane in np.flatnonzero(m2):
                            lane = int(lane)
                            view = self.lanes[lane].view
                            i = self.lanes[lane].order[t]
                            errors[lane] = DeadlockError(
                                f"task {view.names[i]!r} can never acquire its memory"
                            )
                            fit_caps[lane] = inf  # never waits again
                        wmask &= ~m2
                    if not wmask.any():
                        break
                    np.copyto(diff, next_release)
                    np.subtract(used, mem_rel_p[cursor, lanes_ix], out=used, where=wmask)
                    np.add(cursor, 1, out=cursor, where=wmask)
                    np.copyto(next_release, rel_p[cursor, lanes_ix], where=wmask)
                    fitted = wmask & (used <= limit)
                    np.copyto(start_at, diff, where=fitted)
                    wmask &= ~fitted
                moved = start_at > time
                if moved.any():
                    np.subtract(start_at, time, out=diff)
                    np.add(mw, diff, out=mw, where=moved)
                    np.copyto(time, start_at, where=moved)
            np.maximum(start_at, link_avail, out=comm_plane[t])
            np.add(comm_plane[t], c, out=link_avail)
            end_plane[t] = link_avail
            np.add(used, m, out=used)
            # Chain every computation whose transfer has landed, one per
            # ready lane per round — the generic loop's exact order.
            while True:
                pp = place_pos_p[cc, lanes_ix]
                ready = pp <= t
                if not ready.any():
                    break
                idx = np.flatnonzero(ready)
                rows = cc[idx]
                te = end_plane[pp[idx], idx]
                cs = np.maximum(te, cpu_avail[idx])
                ce = cs + comp_dur_p[rows, idx]
                comp_plane[rows, idx] = cs
                rel_p[rows, idx] = ce
                cpu_avail[idx] = ce
                refresh = cursor[idx] == rows
                next_release[idx[refresh]] = ce[refresh]
                cc[idx] += 1
        return comm_plane, comp_plane, mw, errors


def _scatter_column(order, n: int, column: np.ndarray) -> "array[float]":
    """One lane's per-step outputs scattered back to task positions as
    ``array('d')`` — reads hand back plain Python floats, exactly like the
    single-run columnar unpack."""
    out = array("d", bytes(8 * n))
    if isinstance(order, range):
        np.frombuffer(out)[:] = column
    else:
        if not isinstance(order, np.ndarray):
            order = np.asarray(order, dtype=np.intp)
        np.frombuffer(out)[order] = column
    return out


def simulate_batched_outcomes(
    runs: Sequence[BatchRun], *, machine: MachineModel | None = None
) -> list:
    """Pack ``runs`` into one plane and simulate; per-lane outcomes in lane
    order (each a ``SimulationResult`` or the lane's captured kernel
    error).  Raises :class:`ValueError` when any run cannot batch — use
    :func:`~repro.simulator.columnar.plan_engine` / the sweep grouping to
    pre-filter."""
    if not runs:
        return []
    return BatchedPlane.pack(runs, machine=machine).run()


def simulate_batched(
    runs: Sequence[BatchRun], *, machine: MachineModel | None = None
) -> list:
    """Like :func:`simulate_batched_outcomes`, but re-raises the first
    failed lane's error (in lane order) — the behaviour of running the
    lanes serially through ``simulate_columnar``."""
    outcomes = simulate_batched_outcomes(runs, machine=machine)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes
