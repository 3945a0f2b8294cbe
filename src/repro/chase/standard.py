"""The standard chase with tuple-generating dependencies.

Given an instance and a set of tgds, the chase repeatedly finds a *trigger*
— a premise match whose conclusion is not (yet) witnessed — and fires it,
adding the conclusion facts with fresh nulls for the existential variables.
For a schema mapping specified by s-t tgds, chasing a source instance
yields a universal solution [FKMP, TCS 2005], and by Proposition 3.11 of
the paper an *extended* universal solution as well — crucially, this holds
even when the source instance itself contains nulls, because premise
matching treats nulls as plain values.

Two variants are provided (design decision D1 in DESIGN.md):

* ``restricted`` (default): a trigger fires only if the conclusion cannot
  be satisfied in the current instance by any extension of the premise
  binding.  Produces smaller results.
* ``oblivious``: every premise match fires exactly once (memoized by the
  premise binding).  Simpler, always terminates for s-t tgds, and the
  result is hom-equivalent to the restricted result.

Both run to a fixpoint in rounds, so they also work when conclusions feed
premises (not the s-t case).  Rounds are evaluated **semi-naively** by
default (decision D5 in DESIGN.md): facts live in a
:class:`~repro.logic.delta.TriggerIndex` maintained incrementally as
triggers fire, and round ``k`` enumerates only the bindings that touch a
fact new in round ``k-1`` (:func:`~repro.logic.delta.match_atoms_delta`)
instead of re-matching the whole instance.  The firing sequence — and
therefore every null name, budget truncation point, and tracer event —
is identical to the naive loop's, which remains available as
``evaluation="naive"`` or via the ``REPRO_NAIVE_CHASE=1`` environment
escape hatch.  Resource governance goes through
:class:`repro.limits.Limits`: the chase checks a cooperative
:class:`~repro.limits.Budget` (wall-clock deadline, fixpoint rounds,
total facts, minted nulls, cancellation) inside the fixpoint loop, and
on exhaustion either raises (``on_exhausted="raise"``, the historical
behavior) or returns the work done so far as a *partial result* tagged
with an :class:`~repro.limits.Exhausted` diagnosis.  Because the chase
is deterministic and truncation only drops a suffix of the firing
sequence, a partial instance is always a sound sub-instance of the full
chase result.  With no limits configured a default 64-round
non-termination guard applies (raising :class:`ChaseNonTermination`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import ChaseNonTermination
from ..instance import Instance
from ..limits import Budget, Exhausted, Limits, current_budget
from ..logic.atoms import Atom
from ..logic.delta import TriggerIndex, match_atoms_delta
from ..logic.dependencies import Dependency, Tgd
from ..logic.matching import match_atoms
from ..obs.events import NullMinted, TriggerFired, exhaustion_event, freeze_binding
from ..obs.profile import DEP_SPAN_NAME, ChaseProfiler, fingerprint_dependency
from ..obs.tracer import Tracer, current_tracer, maybe_span
from ..terms import NullFactory, Value, Var

__all__ = [
    "ChaseNonTermination",
    "ChaseResult",
    "chase",
    "chase_atoms_canonical",
    "resolve_evaluation",
]

#: Rounds guard applied when the caller sets neither rounds nor deadline
#: (non-termination must stay an error, never a hang).
DEFAULT_MAX_ROUNDS = 64

#: The pre-``Limits`` behavior: 64 rounds, raise on exhaustion.
_LEGACY_LIMITS = Limits(max_rounds=DEFAULT_MAX_ROUNDS, on_exhausted="raise")


@dataclass(frozen=True)
class ChaseResult:
    """Outcome of a chase run.

    ``instance`` is the full chased instance (input plus generated facts);
    ``generated`` the facts added by the chase; ``steps`` the number of
    trigger firings; ``rounds`` the number of fixpoint rounds used.

    ``exhausted`` is ``None`` for a completed fixpoint; on a
    budget-limited run it carries the :class:`repro.limits.Exhausted`
    diagnosis and ``instance`` is the sound partial result (a
    sub-instance of what the unlimited chase would produce).

    Per-round statistics make the semi-naive win observable:
    ``delta_sizes[k]`` is how many facts were new going into round
    ``k+1`` (independent of the evaluation mode), and
    ``triggers_considered`` counts the premise bindings the loop
    actually enumerated — under delta evaluation this stays close to
    ``steps``, while the naive loop re-enumerates every old binding
    every round.
    """

    instance: Instance
    generated: FrozenSet
    steps: int
    rounds: int
    exhausted: Optional[Exhausted] = None
    delta_sizes: Tuple[int, ...] = ()
    triggers_considered: int = 0

    @property
    def completed(self) -> bool:
        """True when the chase reached its fixpoint within budget."""
        return self.exhausted is None

    def restricted_to(self, relations: Sequence[str]) -> Instance:
        """The chased instance projected onto the given relation names."""
        return self.instance.restrict(relations)


def _frontier_binding(tgd: Tgd, binding: Dict[Var, Value]) -> Dict[Var, Value]:
    return {v: binding[v] for v in tgd.frontier}


def _conclusion_satisfied(tgd: Tgd, binding: Dict[Var, Value], store) -> bool:
    """Can the conclusion be witnessed in *store* extending *binding*?

    *store* is anything with the ``tuples(relation)`` matching protocol —
    an :class:`Instance` or a live :class:`InstanceBuilder`.
    """
    seed = {v: binding[v] for v in tgd.premise_variables & tgd.conclusion_variables}
    return (
        next(match_atoms(tgd.conclusion, store, initial=seed), None) is not None
    )


def _fire(
    tgd: Tgd,
    binding: Dict[Var, Value],
    builder,
    factory: NullFactory,
    tracer: Optional[Tracer] = None,
    tgd_index: int = -1,
    round_number: int = 0,
) -> int:
    """Add the conclusion facts for one trigger; return how many were new.

    *builder* is anything with ``add``/``add_all`` — an
    :class:`~repro.instance.InstanceBuilder` or (the chase's own case) a
    :class:`~repro.logic.delta.TriggerIndex`.
    """
    full = dict(binding)
    if tracer is None:
        for var in sorted(tgd.existential_variables):
            full[var] = factory.fresh()
        return builder.add_all(atom.instantiate(full) for atom in tgd.conclusion)
    minted = []
    for var in sorted(tgd.existential_variables):
        fresh = factory.fresh()
        full[var] = fresh
        minted.append((var.name, fresh))
    added = []
    for atom in tgd.conclusion:
        f = atom.instantiate(full)
        if builder.add(f):
            added.append(f)
    tgd_text = str(tgd)
    for var_name, fresh in minted:
        tracer.emit(
            NullMinted(
                null=fresh,
                var=var_name,
                tgd=tgd_text,
                tgd_index=tgd_index,
                round=round_number,
            )
        )
    tracer.emit(
        TriggerFired(
            tgd=tgd_text,
            tgd_index=tgd_index,
            round=round_number,
            binding=freeze_binding(binding),
            added=tuple(added),
            premises=tuple(a.instantiate(binding) for a in tgd.premise),
            minted=tuple(minted),
        )
    )
    return len(added)


def resolve_budget(
    limits: Optional[Limits],
    budget: Optional[Budget],
    legacy: Limits,
    fallback_rounds: Optional[int] = None,
) -> Budget:
    """The effective budget for one chase call.

    Priority: an explicit *budget* (shared accounting, honored as-is) >
    explicit *limits* > the thread's ambient budget > *legacy* defaults.
    A fresh budget built from limits that bound neither rounds nor time
    gets *fallback_rounds* imposed so unbounded recursion stays an error
    rather than a hang.
    """
    if budget is not None:
        return budget
    if limits is None:
        ambient = current_budget()
        if ambient is not None:
            return ambient
        return Budget(legacy)
    if (
        fallback_rounds is not None
        and limits.max_rounds is None
        and limits.deadline is None
    ):
        limits = limits.replace(max_rounds=fallback_rounds)
    return Budget(limits)


def report_exhaustion(
    tracer: Optional[Tracer], diagnosis: Exhausted
) -> None:
    """Emit the exhaustion event and counters onto the tracer."""
    if tracer is None:
        return
    tracer.emit(exhaustion_event(diagnosis))
    tracer.metrics.inc(f"budget.exhausted.{diagnosis.resource}")
    if diagnosis.resource == "rounds":
        tracer.metrics.inc("chase.nontermination")


def note_dependency_cell(
    profiler: ChaseProfiler,
    tracer: Optional[Tracer],
    fingerprint: str,
    text: str,
    round_number: int,
    started: float,
    ended: float,
    considered: int,
    fired: int,
    facts: int,
    nulls: int,
    branch: Optional[str] = None,
) -> None:
    """Record one profiled (dependency, round) cell — and its span.

    Shared by both fixpoint loops: the cell always lands on the
    profiler; when a tracer is also active and the cell saw any
    binding, a ``chase.dep`` span is recorded so cross-process merges
    can rebuild the same profile from spans alone
    (:meth:`repro.obs.profile.ChaseProfile.from_spans`).
    """
    seconds = ended - started
    profiler.note(
        fingerprint=fingerprint,
        text=text,
        round_number=round_number,
        seconds=seconds,
        considered=considered,
        fired=fired,
        facts=facts,
        nulls=nulls,
        branch=branch,
    )
    if tracer is not None and considered:
        attrs = {
            "fingerprint": fingerprint,
            "tgd": text,
            "round": round_number,
            "seconds": seconds,
            "considered": considered,
            "fired": fired,
            "facts": facts,
            "nulls": nulls,
        }
        if branch is not None:
            attrs["branch"] = branch
        tracer.record_span(DEP_SPAN_NAME, started, ended, **attrs)


def resolve_evaluation(evaluation: Optional[str]) -> str:
    """The effective evaluation mode: explicit > environment > delta.

    ``"delta"`` (semi-naive, the default) enumerates only bindings that
    touch facts new in the previous round; ``"naive"`` re-matches the
    whole instance each round.  Both produce fact-for-fact identical
    results; naive survives as a differential-testing oracle, reachable
    fleet-wide through ``REPRO_NAIVE_CHASE=1``.
    """
    if evaluation is None:
        evaluation = "naive" if os.environ.get("REPRO_NAIVE_CHASE") else "delta"
    if evaluation not in ("delta", "naive"):
        raise ValueError(f"unknown chase evaluation {evaluation!r}")
    return evaluation


def chase(
    instance: Instance,
    dependencies: Sequence[Dependency],
    variant: str = "restricted",
    *,
    null_prefix: str = "N",
    tracer: Optional[Tracer] = None,
    limits: Optional[Limits] = None,
    budget: Optional[Budget] = None,
    evaluation: Optional[str] = None,
    profiler: Optional[ChaseProfiler] = None,
) -> ChaseResult:
    """Chase *instance* with plain tgds; returns the full chased instance.

    Dependencies must be plain or guarded :class:`Tgd`s (disjunctive tgds
    need :func:`repro.chase.disjunctive.disjunctive_chase`).  Guards on
    premises are honored during matching.

    Rounds are evaluated semi-naively by default; ``evaluation`` picks
    the mode explicitly (``"delta"``/``"naive"``, see
    :func:`resolve_evaluation`).  The two modes fire the same triggers
    in the same order against the same canonical
    :class:`~repro.logic.delta.TriggerIndex` view, so results — null
    names, partial prefixes, traces — are identical; only the number of
    bindings *considered* differs (``ChaseResult.triggers_considered``).

    Resource governance: pass ``limits`` (a :class:`repro.limits.Limits`)
    to bound wall-clock time, rounds, facts, or minted nulls; with
    ``on_exhausted="partial"`` (the ``Limits`` default) exhaustion
    returns the tagged partial result instead of raising.  A shared
    ``budget`` (:class:`repro.limits.Budget`) may be passed instead for
    composite operations; otherwise the thread's ambient budget
    (:func:`repro.limits.budget_scope`) applies.

    With a *tracer* (explicit, or the ambient one from
    :func:`repro.obs.tracing`) every trigger firing and minted null is
    emitted as a typed event and recorded in the tracer's provenance
    graph; tracing never changes the chase result.  On non-termination
    the events emitted so far stay on the tracer (a partial trace).

    With a *profiler* (:class:`repro.obs.profile.ChaseProfiler`) each
    dependency's match-and-fire block is timed per round — self time,
    triggers considered/fired, facts added, nulls minted — at a cost of
    two clock reads per (dependency, round); profiling, like tracing,
    never changes the chase result.

    With no limits at all, raises :class:`ChaseNonTermination` after 64
    fixpoint rounds; for source-to-target tgds one round always suffices.
    """
    tgds: List[Tgd] = []
    for dep in dependencies:
        if not isinstance(dep, Tgd):
            raise TypeError(
                f"standard chase handles plain tgds only, got {dep!r}; "
                "use disjunctive_chase for disjunctive dependencies"
            )
        tgds.append(dep)
    if variant not in ("restricted", "oblivious"):
        raise ValueError(f"unknown chase variant {variant!r}")
    evaluation = resolve_evaluation(evaluation)
    if tracer is None:
        tracer = current_tracer()
    budget = resolve_budget(
        limits, budget, _LEGACY_LIMITS, fallback_rounds=DEFAULT_MAX_ROUNDS
    )

    index = TriggerIndex(instance)
    factory = NullFactory.avoiding(instance.active_domain, prefix=null_prefix)
    fired: Set[Tuple[int, Tuple[Tuple[Var, Value], ...]]] = set()
    steps = 0
    rounds = 0
    minted_total = 0
    triggers_considered = 0
    delta_sizes: List[int] = []
    exhausted: Optional[Exhausted] = None
    if profiler is not None:
        dep_keys = [(fingerprint_dependency(tgd), str(tgd)) for tgd in tgds]
        clock = time.perf_counter

    with maybe_span(tracer, "chase", variant=variant, input_facts=len(instance)):
        while exhausted is None:
            rounds += 1
            exhausted = budget.start_round("chase")
            if exhausted is not None:
                rounds -= 1  # the exhausted round never ran
                break
            # Rotate the round boundary: facts fired last round become
            # visible (and are the delta), facts fired this round stay
            # invisible to premise matching until the next rotation —
            # exactly what the per-round snapshot used to enforce.
            delta = index.begin_round()
            delta_sizes.append(sum(len(rows) for rows in delta.values()))
            view = index.round_view()
            progressed = False
            for tgd_index, tgd in enumerate(tgds):
                if exhausted is not None:
                    break
                if profiler is not None:
                    cell_started = clock()
                    considered_before = triggers_considered
                    steps_before = steps
                    facts_before = len(index)
                    nulls_before = minted_total
                if evaluation == "delta":
                    bindings = match_atoms_delta(
                        tgd.premise, view, delta, tgd.guards
                    )
                else:
                    bindings = match_atoms(tgd.premise, view, tgd.guards)
                for binding in bindings:
                    triggers_considered += 1
                    if variant == "oblivious":
                        key = (tgd_index, tuple(sorted(binding.items())))
                        if key in fired:
                            continue
                        fired.add(key)
                    else:
                        # Restricted: check satisfaction against the *live*
                        # index state so one round does not add duplicate
                        # witnesses for overlapping triggers (decision D5:
                        # deltas drive premise matching only; satisfaction
                        # must see everything, or a witness fired earlier
                        # in the same round would be missed).
                        if _conclusion_satisfied(tgd, binding, index):
                            continue
                    _fire(tgd, binding, index, factory, tracer, tgd_index, rounds)
                    steps += 1
                    progressed = True
                    minted_total += len(tgd.existential_variables)
                    exhausted = budget.charge(
                        "chase", facts=len(index), nulls=minted_total
                    )
                    if exhausted is not None:
                        break
                if profiler is not None:
                    fingerprint, text = dep_keys[tgd_index]
                    note_dependency_cell(
                        profiler,
                        tracer,
                        fingerprint,
                        text,
                        rounds,
                        cell_started,
                        clock(),
                        triggers_considered - considered_before,
                        steps - steps_before,
                        len(index) - facts_before,
                        minted_total - nulls_before,
                    )
            if not progressed and exhausted is None:
                break
        if exhausted is not None:
            report_exhaustion(tracer, exhausted)
            if budget.limits.raises:
                budget.raise_exhausted()

    final = index.snapshot()
    return ChaseResult(
        instance=final,
        generated=final.facts - instance.facts,
        steps=steps,
        rounds=rounds,
        exhausted=exhausted,
        delta_sizes=tuple(delta_sizes),
        triggers_considered=triggers_considered,
    )


def chase_atoms_canonical(
    premise: Sequence[Atom], null_prefix: str = "C"
) -> Instance:
    """The canonical instance of a premise: variables become fresh nulls.

    Used to build canonical test families for the semi-decision checkers
    (the "frozen premise" construction standard in chase theory).
    """
    factory = NullFactory(prefix=null_prefix)
    seen: Dict[Var, Value] = {}
    facts = []
    for atom in premise:
        for term in atom.terms:
            if isinstance(term, Var) and term not in seen:
                seen[term] = factory.fresh()
        facts.append(atom.instantiate(seen))
    return Instance(facts)
