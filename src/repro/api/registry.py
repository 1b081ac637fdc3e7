"""Pluggable solver registry behind the :func:`repro.solve` facade.

Every strategy that maps a Problem DT instance to a feasible schedule —
the paper's fourteen heuristics, the Gilmore–Gomory/Held–Karp exact no-wait
sequencer, the windowed ``lp.k`` MILP — is registered here under a canonical
name plus optional aliases, and grouped by :class:`~repro.heuristics.base.Category`.
Third-party strategies join the same namespace with the decorator::

    from repro.api import register_solver
    from repro.heuristics import StaticOrderHeuristic

    @register_solver(aliases=("RND",))
    class RandomOrder(StaticOrderHeuristic):
        name = "RANDOM"
        def order(self, instance):
            ...

Once registered, the solver is reachable from :func:`repro.solve`, from
``Study().solvers("RANDOM")`` and from category specs such as
``"category:static"`` — no repro internals need to change.
"""

from __future__ import annotations

import difflib
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

from ..core.instance import Instance
from ..core.schedule import Schedule
from ..heuristics.base import PAPER_FIGURE_ORDER, Category, Heuristic

__all__ = [
    "Solver",
    "SolverInfo",
    "SolverRegistrationError",
    "UnknownSolverError",
    "NamedSpec",
    "named_spec",
    "register_solver",
    "unregister_solver",
    "get_solver",
    "solver_names",
    "available_solvers",
    "resolve_solvers",
    "spec_to_wire",
    "wire_to_spec",
    "warm_registry",
    "paper_lineup",
    "PAPER_FIGURE_ORDER",
]


@runtime_checkable
class Solver(Protocol):
    """Anything that can turn an instance into a feasible schedule.

    The paper heuristics (:class:`~repro.heuristics.base.Heuristic`), the
    exact no-wait sequencer and the MILP wrapper all satisfy this protocol;
    so does any user object with ``name``, ``category`` and ``schedule``.
    """

    name: str
    category: Category

    def schedule(self, instance: Instance) -> Schedule: ...


class SolverRegistrationError(ValueError):
    """A solver could not be (or was incorrectly) registered."""


class UnknownSolverError(KeyError):
    """A solver name/alias/category spec did not resolve.

    Subclasses :class:`KeyError`, so callers may catch either type: an
    unknown name raises ``KeyError`` like any failed mapping lookup.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class SolverInfo:
    """Descriptive metadata attached to one registered solver."""

    name: str
    category: Category
    description: str = ""
    favorable_situation: str = ""
    aliases: tuple[str, ...] = ()


@dataclass(frozen=True)
class _Registration:
    info: SolverInfo
    factory: Callable[..., Solver]


# Canonical upper-cased name -> registration; upper-cased alias -> canonical key.
_REGISTRY: dict[str, _Registration] = {}
_ALIASES: dict[str, str] = {}
_LOCK = threading.RLock()
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Register the built-in solvers on first use (lazily, to avoid cycles).

    The loaded flag is only set once the import has *succeeded*, and while it
    is in flight the lock is held, so concurrent first accesses either wait
    for the full registry or retry a failed import with the real error.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    with _LOCK:
        if _BUILTINS_LOADED:
            return
        from . import _builtin  # noqa: F401  (import performs the registrations)

        _BUILTINS_LOADED = True


def warm_registry() -> None:
    """Force-load the built-in registrations.

    Normally the registry fills itself lazily on first lookup; worker
    processes of the :class:`~repro.api.backends.ProcessBackend` call this
    from their initializer so the (one-off) import cost is paid at pool
    start-up instead of inside the first timed job.
    """
    _ensure_builtins()


def _known_names() -> list[str]:
    return [reg.info.name for reg in _REGISTRY.values()] + [
        alias for reg in _REGISTRY.values() for alias in reg.info.aliases
    ]


def _unknown(name: str) -> UnknownSolverError:
    # Match case-insensitively but suggest the *registered* spelling: the
    # registry accepts any casing, yet error messages should hand back names
    # that read like the documentation (e.g. "lp.4", never "LP.4").
    by_upper: dict[str, str] = {}
    for known in _known_names():
        by_upper.setdefault(known.upper(), known)
    matches = difflib.get_close_matches(name.upper(), list(by_upper), n=3)
    suggestions = sorted({by_upper[match] for match in matches})
    hint = f"; did you mean {', '.join(suggestions)}?" if suggestions else ""
    return UnknownSolverError(
        f"unknown solver {name!r}{hint} known solvers: {sorted(set(_known_names()))}"
    )


def register_solver(
    name: str | None = None,
    *,
    category: Category | str | None = None,
    aliases: Sequence[str] = (),
    description: str | None = None,
    favorable_situation: str | None = None,
    replace: bool = False,
) -> Callable:
    """Decorator registering a solver class or zero-argument factory.

    ``name``/``category``/``description``/``favorable_situation`` default to
    the decorated class's attributes when it is a
    :class:`~repro.heuristics.base.Heuristic` subclass.  Names and aliases are
    case-insensitive and must not collide with an existing registration
    unless ``replace=True``.
    """

    def decorator(target: Callable[..., Solver]) -> Callable[..., Solver]:
        solver_name = name
        solver_category = category
        solver_description = description
        solver_favorable = favorable_situation
        if isinstance(target, type) and issubclass(target, Heuristic):
            solver_name = solver_name or target.name
            solver_category = solver_category if solver_category is not None else target.category
            solver_description = (
                solver_description if solver_description is not None else target.description
            )
            solver_favorable = (
                solver_favorable if solver_favorable is not None else target.favorable_situation
            )
        if not solver_name:
            raise SolverRegistrationError(
                f"cannot infer a name for {target!r}; pass register_solver(name=...)"
            )
        if solver_category is None:
            raise SolverRegistrationError(
                f"solver {solver_name!r} needs a category (one of {[c.value for c in Category]})"
            )
        info = SolverInfo(
            name=solver_name,
            category=Category(solver_category),
            description=solver_description or "",
            favorable_situation=solver_favorable or "",
            aliases=tuple(aliases),
        )
        with _LOCK:
            key = solver_name.upper()
            taken = set(_REGISTRY) | set(_ALIASES)
            if not replace:
                for candidate in (key, *[a.upper() for a in info.aliases]):
                    if candidate in taken:
                        raise SolverRegistrationError(
                            f"solver name or alias {candidate!r} is already registered; "
                            "pass replace=True to override"
                        )
            else:
                _discard(key)
            _REGISTRY[key] = _Registration(info=info, factory=target)
            for alias in info.aliases:
                _ALIASES[alias.upper()] = key
        return target

    return decorator


def _discard(key: str) -> None:
    _REGISTRY.pop(key, None)
    for alias in [a for a, target in _ALIASES.items() if target == key]:
        del _ALIASES[alias]


def unregister_solver(name: str) -> None:
    """Remove a registered solver (mainly useful for tests and plugins)."""
    _ensure_builtins()
    with _LOCK:
        key = name.upper()
        key = _ALIASES.get(key, key)
        if key not in _REGISTRY:
            raise _unknown(name)
        _discard(key)


def get_solver(name: str, **params) -> Solver:
    """Instantiate a solver by canonical name or alias (case-insensitive).

    Extra keyword arguments are forwarded to the solver's factory (e.g.
    ``get_solver("lp.4", time_limit_per_window=2.0)``).
    """
    _ensure_builtins()
    key = name.upper()
    key = _ALIASES.get(key, key)
    try:
        registration = _REGISTRY[key]
    except KeyError:
        raise _unknown(name) from None
    return registration.factory(**params)


def solver_names() -> tuple[str, ...]:
    """Canonical names of every registered solver, in registration order."""
    _ensure_builtins()
    return tuple(reg.info.name for reg in _REGISTRY.values())


def available_solvers() -> dict[str, SolverInfo]:
    """Metadata of every registered solver, keyed by canonical name."""
    _ensure_builtins()
    return {reg.info.name: reg.info for reg in _REGISTRY.values()}


def resolve_solvers(*specs) -> list[Solver]:
    """Resolve a mixed list of solver specs into fresh solver instances.

    Each spec may be a canonical name or alias (``"OOMAMR"``), a category
    spec (``"category:dynamic"`` — every registered member, in registration
    order), a :class:`Solver` instance (used as-is) or a solver class
    (instantiated).  With no specs, the paper's Figure 9/11 line-up is
    returned.
    """
    _ensure_builtins()
    if not specs:
        return paper_lineup()
    solvers: list[Solver] = []
    for spec in specs:
        if isinstance(spec, str):
            if spec.lower().startswith("category:"):
                category_name = spec.split(":", 1)[1].strip()
                try:
                    category = Category(category_name.lower())
                except ValueError:
                    raise UnknownSolverError(
                        f"unknown solver category {category_name!r}; "
                        f"choose from {[c.value for c in Category]}"
                    ) from None
                members = [
                    reg for reg in _REGISTRY.values() if reg.info.category is category
                ]
                if not members:
                    raise UnknownSolverError(
                        f"no registered solvers in category {category.value!r}"
                    )
                solvers.extend(reg.factory() for reg in members)
            else:
                solvers.append(get_solver(spec))
        elif isinstance(spec, type):
            solvers.append(spec())
        elif isinstance(spec, Solver):
            solvers.append(spec)
        elif callable(spec):
            # Zero-argument factory: lets sweeps build a *fresh* configured
            # solver per trace job (Study().portfolio uses this, so racing
            # state never leaks between concurrent jobs).
            solver = spec()
            if not isinstance(solver, Solver):
                raise TypeError(
                    f"solver factory {spec!r} returned {solver!r}, "
                    "which does not satisfy the Solver protocol"
                )
            solvers.append(solver)
        else:
            raise TypeError(
                f"cannot interpret solver spec {spec!r}; expected a name, "
                "'category:<name>', a Solver instance, a solver class or a "
                "zero-argument factory"
            )
    return solvers


@dataclass(frozen=True)
class NamedSpec:
    """A solver spec *by registered name and parameters* — the picklable kind.

    Calling it instantiates a fresh solver through the registry, so it slots
    into :func:`resolve_solvers` like any zero-argument factory, while —
    unlike a closure — it survives a trip through :func:`spec_to_wire` /
    :func:`wire_to_spec` and a process boundary.  ``params`` is a sorted
    ``(key, value)`` tuple so two specs built from the same keyword
    arguments compare (and hash their wire form) equal.
    """

    name: str
    params: tuple[tuple[str, object], ...] = ()

    def __call__(self) -> Solver:
        return get_solver(self.name, **dict(self.params))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rendered = ", ".join(f"{key}={value!r}" for key, value in self.params)
        return f"named_spec({self.name!r}{', ' + rendered if rendered else ''})"


def named_spec(name: str, **params) -> NamedSpec:
    """Build a :class:`NamedSpec` (the parameters are stored sorted by key)."""
    return NamedSpec(name=name, params=tuple(sorted(params.items())))


def _registered_name_of(factory) -> str | None:
    """Canonical name under which ``factory`` (a class/callable) is registered."""
    _ensure_builtins()
    for registration in _REGISTRY.values():
        if registration.factory is factory:
            return registration.info.name
    return None


def spec_to_wire(spec) -> dict:
    """Encode one solver spec as a plain-data wire dict.

    The wire form contains only strings and plain parameter values, so a
    :class:`~repro.api.engine.SweepJob` carrying it can cross a process
    boundary without ever pickling a live solver.  Names, ``"category:"``
    specs, :class:`NamedSpec` and *registered* classes all encode; solver
    instances and opaque callables do not — they raise a :class:`TypeError`
    explaining what to pass instead (the process backend surfaces this
    before any worker starts).
    """
    if isinstance(spec, str):
        return {"kind": "name", "name": spec}
    if isinstance(spec, NamedSpec):
        return {"kind": "named", "name": spec.name, "params": dict(spec.params)}
    if isinstance(spec, type):
        name = _registered_name_of(spec)
        if name is None:
            raise TypeError(
                f"solver class {spec.__name__!r} is not registered and cannot be "
                "sent to a worker process; register it with @register_solver "
                "(in a module the workers import) and pass its name"
            )
        return {"kind": "name", "name": name}
    if isinstance(spec, Solver) or callable(spec):
        if not isinstance(spec, Solver):
            name = _registered_name_of(spec)
            if name is not None:
                return {"kind": "name", "name": name}
        kind = "instance" if isinstance(spec, Solver) else "factory"
        raise TypeError(
            f"solver {kind} {spec!r} cannot cross a process boundary; pass a "
            "registered name, a 'category:<name>' spec, or "
            "repro.api.named_spec(name, **params) so each worker rebuilds the "
            "solver from the registry"
        )
    raise TypeError(f"cannot interpret solver spec {spec!r}")


def wire_to_spec(wire: dict):
    """Decode a :func:`spec_to_wire` dict back into a resolvable spec.

    Runs inside worker processes: the result is handed to
    :func:`resolve_solvers`, which instantiates the solver from the (lazily
    warmed) registry of that worker.
    """
    if not isinstance(wire, dict) or "kind" not in wire:
        raise ValueError(f"not a solver wire spec: {wire!r}")
    kind = wire["kind"]
    if kind == "name":
        return wire["name"]
    if kind == "named":
        return named_spec(wire["name"], **wire.get("params", {}))
    raise ValueError(f"unknown solver wire kind {kind!r}")


def paper_lineup(names: Iterable[str] | None = None) -> list[Solver]:
    """Fresh instances of the Figures 9/11 line-up, in figure order.

    ``names`` optionally restricts (and re-orders) the line-up.  A name of
    :data:`PAPER_FIGURE_ORDER` that is missing from the registry raises a
    :class:`SolverRegistrationError` naming the culprit explicitly, instead
    of the bare ``KeyError`` the pre-facade registry used to leak.
    """
    _ensure_builtins()
    wanted = tuple(names) if names is not None else PAPER_FIGURE_ORDER
    missing = [name for name in wanted if _ALIASES.get(name.upper(), name.upper()) not in _REGISTRY]
    if missing:
        if names is None:
            raise SolverRegistrationError(
                f"PAPER_FIGURE_ORDER references unregistered solver(s) {missing}; "
                "every name in the line-up must be registered with "
                "@register_solver before the line-up can be built"
            )
        raise SolverRegistrationError(
            f"requested line-up contains unregistered solver(s) {missing}; "
            f"known solvers: {sorted(set(_known_names()))}"
        )
    return [get_solver(name) for name in wanted]
