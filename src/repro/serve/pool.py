"""The server's shared worker pool — one executor, every client.

This is the multiplexing point of the daemon: a single persistent
``ThreadPoolExecutor`` executes *all* admitted work, whatever the client or
endpoint.  Two faces over the same threads:

* :meth:`ServePool.submit` — fire one callable (a ``/solve`` request) and
  get a ``concurrent.futures.Future`` the asyncio handler can await with a
  deadline;
* :meth:`ServePool.backend` — an :class:`~repro.api.backends.ExecutionBackend`
  view, so a whole ``Study`` sweep streams its :class:`SweepJob` chunks
  through the *same* shared workers (reusing the backend layer's
  order-preserving, bounded-window pipeline).  The server sweeps with
  ``chunk_size=1``, so concurrent sweeps interleave at job granularity
  instead of monopolizing the pool.

It is the one thread-pool backend left: local sweeps run serially or on
processes, while the daemon shares one set of threads across clients and
the asyncio loop.  The executor lives as long as the server; cancellation
is cooperative — a backend view built with a ``cancel`` event stops
launching new jobs (raising :class:`~repro.api.backends.StopSweep`) the
moment the event is set, which is how past-deadline sweeps die mid-flight.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Sequence

from ..api.backends import _CHUNKS_PER_WORKER, StopSweep, _stream_pool
from ..api.results import RunRecord

__all__ = ["ServePool", "PoolBackend"]


class ServePool:
    """Persistent bounded worker pool with busy-count observability."""

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.size = workers
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve-worker"
        )
        self._lock = threading.Lock()
        self._busy = 0
        self._completed = 0

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    @property
    def busy(self) -> int:
        """Workers executing something right now."""
        with self._lock:
            return self._busy

    @property
    def completed_total(self) -> int:
        with self._lock:
            return self._completed

    def utilization(self) -> float:
        """Busy fraction of the pool, 0.0 .. 1.0."""
        return self.busy / self.size

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _tracked(self, fn: Callable, /, *args, **kwargs):
        with self._lock:
            self._busy += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with self._lock:
                self._busy -= 1
                self._completed += 1

    def submit(self, fn: Callable, /, *args, **kwargs) -> Future:
        """Run one callable on the shared workers (FIFO beyond pool size)."""
        return self._executor.submit(self._tracked, fn, *args, **kwargs)

    def backend(self, cancel: threading.Event | None = None) -> "PoolBackend":
        """An ExecutionBackend view over the shared workers.

        ``cancel`` (optional) makes the view cooperative: once set, chunks
        that have not started yet raise ``StopSweep`` instead of running,
        and the sweep's remaining chunks are cancelled.
        """
        return PoolBackend(self, cancel)

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)


class PoolBackend:
    """ExecutionBackend protocol over a :class:`ServePool` (shared workers).

    Order-preserving like every backend: results come back in submission
    order, so a sweep served by the daemon is byte-identical to the same
    sweep run locally on the serial backend.
    """

    name = "serve-pool"

    def __init__(self, pool: ServePool, cancel: threading.Event | None = None):
        self._pool = pool
        self._cancel = cancel

    def _run_chunk(self, jobs: Sequence) -> list[list[RunRecord]]:
        results = []
        for job in jobs:
            if self._cancel is not None and self._cancel.is_set():
                raise StopSweep(f"sweep cancelled before job {job.label!r}")
            results.append(job.run())
        return results

    def stream_chunks(self, chunks, *, on_chunk=None, max_pending=None):
        """Bounded-window streaming over the shared workers (ordered yields)."""
        if max_pending is None:
            max_pending = self._pool.size * _CHUNKS_PER_WORKER
        return _stream_pool(
            _SubmitAdapter(self._pool), chunks, self._run_chunk, on_chunk, max_pending
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PoolBackend(workers={self._pool.size})"


class _SubmitAdapter:
    """Duck-typed executor handing ``_stream_pool`` submissions to the pool."""

    def __init__(self, pool: ServePool):
        self._pool = pool

    def submit(self, fn, /, *args, **kwargs) -> Future:
        return self._pool.submit(fn, *args, **kwargs)
