"""Content-addressed persistent result cache for solver runs.

Repeated ``solve()``/``Study`` traffic over the same instances (capacity
sweeps re-run after a code tweak, dashboards re-rendering figures, services
answering the same advisory query) pays the full simulation cost every time.
:class:`ResultCache` memoises schedules on disk, keyed by a stable SHA-256
fingerprint of *everything that determines the output*:

* the canonical instance — every task's name/comm/comp/memory/release/tag
  (float bits exactly, via ``float.hex``) in submission order, plus the
  capacity; the instance's display name is deliberately excluded;
* the solver name and its (sorted) parameters;
* the machine model.

Hits rebuild the schedule from the stored float bits, so a cached result is
**byte-identical** to the cold run — differential-tested for all fourteen
paper heuristics plus GGX in ``tests/portfolio/test_cache.py``.  A corrupted
or truncated store entry degrades to a miss (the entry is dropped and
recomputed), never a crash.  Writes are atomic (temp file + rename), so
concurrent processes sharing one cache directory cannot observe torn
entries.

:class:`CachedSolver` wraps any registered solver with the cache and is
itself registered as ``"portfolio.cached"``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import threading
from pathlib import Path

from .. import obs
from ..core.instance import Instance
from ..core.schedule import Schedule, ScheduledTask
from ..core.task import Task
from ..heuristics.base import Category
from ..simulator.batch import _ScheduleOnlySolver
from ..simulator.columnar import _normalise_engine
from ..simulator.engine import SimulationResult
from ..simulator.resources import MachineModel
from .outcome import OutcomeMixin, PortfolioOutcome

__all__ = [
    "CachedSolver",
    "ResultCache",
    "default_cache_dir",
    "instance_fingerprint",
    "solve_key",
]

_FORMAT = "repro.cache"
_VERSION = 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro-dt``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro-dt").expanduser()


def _hex(value: float) -> str:
    """Exact, platform-independent float encoding (inf/nan included)."""
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value.hex()


def _unhex(text: str) -> float:
    if text == "nan":
        return math.nan
    if text in ("inf", "-inf"):
        return math.inf if text == "inf" else -math.inf
    return float.fromhex(text)


def instance_fingerprint(instance: Instance) -> str:
    """Stable SHA-256 of the canonical instance.

    Covers the submission order, every task quantity bit-exactly and the
    capacity; excludes the display name, so a renamed copy of the same
    mathematical instance hits the same cache entries.
    """
    digest = hashlib.sha256()
    digest.update(_hex(instance.capacity).encode())
    for task in instance.tasks:
        digest.update(
            "|".join(
                (
                    task.name,
                    _hex(task.comm),
                    _hex(task.comp),
                    _hex(task.memory),
                    _hex(task.release),
                    task.tag,
                )
            ).encode()
        )
        digest.update(b"\n")
    return digest.hexdigest()


def solve_key(
    instance: Instance,
    solver_name: str,
    params: dict | None = None,
    machine: MachineModel | None = None,
) -> str:
    """Content address of one (instance, solver, params, machine) solve."""
    digest = hashlib.sha256()
    digest.update(instance_fingerprint(instance).encode())
    digest.update(solver_name.upper().encode())
    for key in sorted(params or {}):
        value = (params or {})[key]
        encoded = _hex(value) if isinstance(value, float) else repr(value)
        digest.update(f"|{key}={encoded}".encode())
    if machine is not None and not machine.is_paper_machine:
        digest.update(
            f"|machine:{machine.link_count}:{machine.cpu_count}:"
            f"{_hex(machine.capacity) if machine.capacity is not None else 'none'}".encode()
        )
    return digest.hexdigest()


class ResultCache:
    """On-disk (plus in-memory) store of schedules, keyed by content hash.

    One JSON file per key under ``directory``; an in-memory layer makes
    repeated hits within a process free.  ``hits``/``misses`` count lookups
    for observability; :meth:`stats` snapshots them together with the entry
    count and on-disk footprint.  The counters are guarded by a lock, so a
    cache shared across threads — every client of one ``repro serve``
    daemon, or the members of a racing portfolio — reports exact numbers.
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self._memory: dict[str, dict] = {}
        self._stats_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.bytes_written = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    def __contains__(self, key: str) -> bool:
        return key in self._memory or self._path(key).is_file()

    def stats(self) -> dict[str, float]:
        """Thread-safe counter snapshot: effectiveness plus store footprint.

        ``hits``/``misses`` count :meth:`get` lookups in this process,
        ``bytes_written`` the payload bytes this process stored, ``entries``
        and ``bytes`` the on-disk store as it is *now* (shared by every
        process pointing at the directory), and ``hit_rate`` the fraction of
        lookups served from the cache (``0.0`` before any lookup).
        """
        with self._stats_lock:
            hits, misses, written = self.hits, self.misses, self.bytes_written
        entries = 0
        disk_bytes = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    disk_bytes += path.stat().st_size
                except OSError:  # entry vanished mid-scan (concurrent clear)
                    continue
                entries += 1
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "entries": entries,
            "bytes": disk_bytes,
            "bytes_written": written,
            "hit_rate": (hits / lookups) if lookups else 0.0,
        }

    def clear(self) -> None:
        """Drop the in-memory layer and every on-disk entry."""
        self._memory.clear()
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                path.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def _load(self, key: str) -> dict | None:
        payload = self._memory.get(key)
        if payload is not None:
            return payload
        path = self._path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            path.unlink(missing_ok=True)  # torn write / stray file: heal the store
            return None
        if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
            path.unlink(missing_ok=True)
            return None
        self._memory[key] = payload
        return payload

    def get(self, key: str) -> Schedule | None:
        """The stored schedule, or ``None`` (miss or unreadable entry).

        A corrupted entry — truncated write, stray file, schema drift — is
        deleted and reported as a miss, so the caller transparently
        recomputes and heals the store.
        """
        started = obs.now()
        payload = self._load(key)
        if payload is not None:
            try:
                schedule = _decode_schedule(payload)
            except (KeyError, TypeError, ValueError):
                payload = None
                self._memory.pop(key, None)
                self._path(key).unlink(missing_ok=True)
        with self._stats_lock:
            if payload is None:
                self.misses += 1
            else:
                self.hits += 1
        hit = payload is not None
        obs.REGISTRY.inc("cache_hits_total" if hit else "cache_misses_total")
        obs.REGISTRY.observe("cache_get_latency", obs.now() - started)
        if obs.is_enabled():
            obs.record_span("cache.get", started, obs.now(), hit=hit)
        return None if payload is None else schedule

    def put(self, key: str, schedule: Schedule, *, solver: str = "") -> None:
        """Store ``schedule`` under ``key`` (atomic write, last writer wins)."""
        started = obs.now()
        payload = _encode_schedule(schedule, solver=solver)
        self._memory[key] = payload
        self.directory.mkdir(parents=True, exist_ok=True)
        text = json.dumps(payload)
        with self._stats_lock:
            self.bytes_written += len(text)
        handle, temp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(text)
            os.replace(temp_path, self._path(key))
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        obs.REGISTRY.inc("cache_puts_total")
        obs.REGISTRY.observe("cache_put_latency", obs.now() - started)


def _encode_schedule(schedule: Schedule, *, solver: str = "") -> dict:
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "solver": solver,
        "entries": [
            {
                "name": entry.task.name,
                "comm": _hex(entry.task.comm),
                "comp": _hex(entry.task.comp),
                "memory": _hex(entry.task.memory),
                "release": _hex(entry.task.release),
                "tag": entry.task.tag,
                "comm_start": _hex(entry.comm_start),
                "comp_start": _hex(entry.comp_start),
            }
            for entry in schedule
        ],
    }


def _decode_schedule(payload: dict) -> Schedule:
    entries = []
    for item in payload["entries"]:
        task = Task(
            name=item["name"],
            comm=_unhex(item["comm"]),
            comp=_unhex(item["comp"]),
            memory=_unhex(item["memory"]),
            release=_unhex(item["release"]),
            tag=item["tag"],
        )
        entries.append(
            ScheduledTask(
                task=task,
                comm_start=_unhex(item["comm_start"]),
                comp_start=_unhex(item["comp_start"]),
            )
        )
    return Schedule(entries)


class CachedSolver(OutcomeMixin):
    """Registered solver (``"portfolio.cached"``) memoising an inner solver.

    ``inner`` is any registered solver name/alias (parameters forwarded via
    ``inner_params``) or an already-built solver instance.  Cache keys cover
    the canonical instance, the inner solver's name and parameters, and the
    machine model; whether the run hit is exposed as
    ``last_outcome.cache_hit`` and flows into the ``cache_hit`` column of
    sweep results.

    ``record=True`` runs always execute (an event trace cannot be served
    from the schedule store) but still warm the cache for later hits.
    """

    category = Category.PORTFOLIO

    def __init__(
        self,
        inner: str | object = "LCMR",
        *,
        cache: ResultCache | None = None,
        directory: str | os.PathLike | None = None,
        **inner_params,
    ) -> None:
        super().__init__()
        if cache is not None and directory is not None:
            raise ValueError("pass either cache= or directory=, not both")
        self.cache = cache if cache is not None else ResultCache(directory)
        if isinstance(inner, str):
            from ..api.registry import get_solver  # lazy: registry imports us

            self._inner = get_solver(inner, **inner_params)
            self._params = dict(inner_params)
        else:
            if inner_params:
                raise TypeError(
                    "inner solver parameters are only accepted when inner is a name"
                )
            self._inner = inner
            self._params = {}
        self.name = "portfolio.cached"

    @property
    def inner(self):
        return self._inner

    @property
    def runs_on_kernel(self) -> bool:
        # Deliberately False even for kernel-backed inners: recorded runs
        # cannot be served from the schedule store, so the cached solver
        # does not advertise the kernel's event recording.
        return False

    def key(self, instance: Instance, machine: MachineModel | None = None) -> str:
        return solve_key(instance, self._inner.name, self._params, machine)

    def _solve_fresh(
        self,
        instance: Instance,
        machine: MachineModel | None,
        record: bool,
        engine: str | None,
    ) -> SimulationResult:
        inner = self._inner
        runner = inner if hasattr(inner, "simulate") else _ScheduleOnlySolver(inner)
        return runner.simulate(instance, machine=machine, record=record, engine=engine)

    def simulate(
        self,
        instance: Instance,
        *,
        machine: MachineModel | None = None,
        record: bool = False,
        engine: str | None = None,
    ) -> SimulationResult:
        _normalise_engine(engine)  # a cache hit must not hide an unknown engine
        key = self.key(instance, machine)
        if not record:
            cached = self.cache.get(key)
            if cached is not None:
                self._record_outcome(
                    PortfolioOutcome(selected=self._inner.name, cache_hit=True)
                )
                return SimulationResult(schedule=cached, trace=None)
        result = self._solve_fresh(instance, machine, record, engine)
        self.cache.put(key, result.schedule, solver=self._inner.name)
        self._record_outcome(PortfolioOutcome(selected=self._inner.name, cache_hit=False))
        return result

    def schedule(self, instance: Instance) -> Schedule:
        return self.simulate(instance).schedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CachedSolver(inner={self._inner.name!r}, directory={str(self.cache.directory)!r})"
