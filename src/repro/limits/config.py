"""The :class:`Limits` configuration and the :class:`Exhausted` diagnosis.

``Limits`` is the single resource-governance surface accepted uniformly
by :func:`repro.chase`, :func:`repro.disjunctive_chase`, every
:class:`repro.ExchangeEngine` operation, and the CLI; the chases take no
separate ``max_rounds``-style keyword arguments.

A ``Limits`` is declarative and immutable; the live accounting object
created from it at the start of a run is :class:`repro.limits.Budget`.
When a budget runs out, the outcome depends on ``on_exhausted``:

* ``"partial"`` (the default): the chase stops cooperatively and
  returns the work done so far, tagged with an :class:`Exhausted`
  diagnosis.  The partial instance is a *sound sub-instance* of the
  full chase result — the chase is deterministic and truncation only
  drops a suffix of the firing sequence.
* ``"raise"``: a :class:`repro.errors.BudgetExhausted` (or its subclass
  :class:`~repro.errors.ChaseNonTermination` for the round budget) is
  raised, preserving the historical guard behavior.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

_ON_EXHAUSTED = ("partial", "raise")


@dataclass(frozen=True)
class Exhausted:
    """Which resource ran out, where, and how far the computation got.

    Attached to partial results (``ChaseResult.exhausted``,
    ``ExchangeResult.exhausted``, ``ReverseResult.exhausted``) and to
    :class:`repro.errors.BudgetExhausted` as ``.diagnosis``.
    """

    resource: str  # "deadline" | "rounds" | "facts" | "nulls" | "branches" | "cancelled" | "injected"
    where: str  # "chase" | "disjunctive_chase" | "hom_search" | "engine.batch" | ...
    limit: object = None
    used: object = None
    rounds: int = 0
    steps: int = 0
    #: The ambient request context at the moment the budget tripped
    #: (empty outside a traced request) — a partial result surfaced by
    #: a server worker names the request whose budget ran out.
    trace_id: str = ""
    request_id: str = ""

    def describe(self) -> str:
        """One-line human-readable diagnosis."""
        bound = "" if self.limit is None else f" (limit {self.limit})"
        progress = f" after {self.rounds} rounds, {self.steps} steps" if (
            self.rounds or self.steps
        ) else ""
        used = "" if self.used is None else f" at {self.used}"
        return (
            f"{self.where}: {self.resource} budget exhausted"
            f"{used}{bound}{progress}"
        )

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.describe()


@dataclass(frozen=True)
class Limits:
    """Declarative resource bounds for one exchange operation.

    All fields default to ``None`` — unlimited.  ``deadline`` is a
    wall-clock *duration in seconds* for the operation (not an absolute
    time, so a ``Limits`` ships unchanged to pool workers); the other
    bounds are counts: fixpoint rounds (per branch for the disjunctive
    chase), total facts in the (per-branch) instance, minted nulls, and
    live disjunctive branches.

    ``grace`` arms **hard-kill supervision** for the engine's batch
    worker pool: a pool worker whose heartbeat goes stale for more
    than *grace* seconds past its cooperative ``deadline`` is
    terminated and its slot respawned (see
    :mod:`repro.engine.supervisor` and ``docs/ARCHITECTURE.md``).
    Grace only takes effect together with a deadline — without one
    there is no point in time after which a silent worker is
    provably hung.

    Hashable and picklable by construction, so a ``Limits`` can ride in
    cache keys and cross process boundaries.
    """

    deadline: Optional[float] = None
    max_rounds: Optional[int] = None
    max_facts: Optional[int] = None
    max_nulls: Optional[int] = None
    max_branches: Optional[int] = None
    grace: Optional[float] = None
    on_exhausted: str = "partial"

    def __post_init__(self) -> None:
        if self.on_exhausted not in _ON_EXHAUSTED:
            raise ValueError(
                f"on_exhausted must be one of {_ON_EXHAUSTED}, "
                f"got {self.on_exhausted!r}"
            )
        for name in ("max_rounds", "max_facts", "max_nulls", "max_branches"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {self.deadline!r}")
        if self.grace is not None and self.grace < 0:
            raise ValueError(f"grace must be >= 0, got {self.grace!r}")

    @property
    def unlimited(self) -> bool:
        """True when no bound is set at all.

        ``grace`` is deliberately ignored here: it arms supervision of
        pool workers but bounds nothing about the computation itself.
        """
        return (
            self.deadline is None
            and self.max_rounds is None
            and self.max_facts is None
            and self.max_nulls is None
            and self.max_branches is None
        )

    @property
    def raises(self) -> bool:
        return self.on_exhausted == "raise"

    def replace(self, **changes) -> "Limits":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def merge(self, override: Optional["Limits"]) -> "Limits":
        """Layer *override* on top of self.

        The override's non-``None`` bounds win, and its
        ``on_exhausted`` policy always wins."""
        if override is None:
            return self
        return Limits(
            deadline=override.deadline if override.deadline is not None else self.deadline,
            max_rounds=override.max_rounds if override.max_rounds is not None else self.max_rounds,
            max_facts=override.max_facts if override.max_facts is not None else self.max_facts,
            max_nulls=override.max_nulls if override.max_nulls is not None else self.max_nulls,
            max_branches=override.max_branches if override.max_branches is not None else self.max_branches,
            grace=override.grace if override.grace is not None else self.grace,
            on_exhausted=override.on_exhausted,
        )

    def describe(self) -> str:
        """Compact rendering of the configured bounds."""
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline}s")
        for name in ("max_rounds", "max_facts", "max_nulls", "max_branches"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        if self.grace is not None:
            parts.append(f"grace={self.grace}s")
        bounds = ", ".join(parts) if parts else "unlimited"
        return f"Limits({bounds}, on_exhausted={self.on_exhausted})"


def resolve_limits(
    limits: Optional[Limits], default: Optional[Limits] = None
) -> Optional[Limits]:
    """Layer a per-call ``limits`` over an engine-level ``default``."""
    if default is None:
        return limits
    return default.merge(limits)
