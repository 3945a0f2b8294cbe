"""The disjunctive chase, with inequality guards and quotient branching.

Section 6 of the paper performs *reverse* data exchange by chasing a
target instance with a maximum extended recovery given by **disjunctive
tgds with inequalities**.  "The disjunctive chase is an extension of the
standard chase where each step branches out several instances, each
satisfying one of the disjuncts" — so the result is a *set* of instances.

Over instances that contain nulls there is an extra subtlety the paper's
abstract treatment leaves implicit: distinct labeled nulls may still stand
for the same unknown value, so both syntactic pattern matching (``P'(x,x)``
against ``P'(n1, n2)``) and inequality guards must be evaluated *in every
world of null identifications*.  :func:`reverse_disjunctive_chase`
therefore first branches over the quotients of the input (see
:mod:`repro.homs.quotient`) and then runs the plain disjunctive chase in
each world, where matching is syntactic and an inequality between distinct
values holds.  DESIGN.md (substitution table) explains why this is exactly
the completion needed for the paper's Theorems 6.2 and 6.5 to hold; the
tests verify it on the paper's own mappings.

Resource governance matters most here: branching is worst-case
exponential in both directions (frontier width and per-branch depth),
and the quotient pre-pass multiplies everything by a Bell number.  Both
entry points take a :class:`repro.limits.Limits` (or a shared
:class:`~repro.limits.Budget`); in ``on_exhausted="partial"`` mode an
exhausted chase stops cleanly and returns the branches explored so far
(unfinished frontier worlds included, each closed with a
``BranchClosed(reason="exhausted")`` event) as a :class:`Branches` list
tagged with the :class:`~repro.limits.Exhausted` diagnosis.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import BudgetExhausted, ChaseNonTermination
from ..homs.quotient import enumerate_quotients
from ..homs.search import is_homomorphic
from ..instance import Instance, InstanceBuilder
from ..limits import Budget, Exhausted, Limits
from ..logic.delta import TriggerIndex, binding_sort_key, match_atoms_delta
from ..logic.dependencies import Dependency, DisjunctiveTgd, iter_disjunctive
from ..logic.matching import match_atoms
from ..obs.events import (
    BranchClosed,
    BranchOpened,
    NullMinted,
    TriggerFired,
    freeze_binding,
)
from ..obs.profile import ChaseProfiler, fingerprint_dependency
from ..obs.tracer import Tracer, current_tracer, maybe_span
from ..terms import NullFactory
from .standard import (
    note_dependency_cell,
    report_exhaustion,
    resolve_budget,
    resolve_evaluation,
)

#: Per-branch rounds guard when neither rounds nor deadline is bounded.
DEFAULT_MAX_ROUNDS = 32

#: Frontier-width guard when neither branches nor deadline is bounded.
DEFAULT_MAX_BRANCHES = 10_000

#: The pre-``Limits`` behavior of both entry points.
_LEGACY_LIMITS = Limits(
    max_rounds=DEFAULT_MAX_ROUNDS,
    max_branches=DEFAULT_MAX_BRANCHES,
    on_exhausted="raise",
)


class Branches(List[Instance]):
    """The result of a disjunctive chase: a list of branch instances.

    Behaves exactly like the plain ``List[Instance]`` it used to be
    (equality, iteration, indexing), with one addition: ``exhausted``
    carries the :class:`repro.limits.Exhausted` diagnosis when the run
    was truncated by its budget (``None`` for a complete enumeration).
    """

    exhausted: Optional[Exhausted] = None

    @property
    def completed(self) -> bool:
        return self.exhausted is None


def _trigger_satisfied(
    dtgd: DisjunctiveTgd, binding: dict, instance: Instance
) -> bool:
    """Is some disjunct already witnessed in *instance* under *binding*?"""
    for disjunct in dtgd.disjuncts:
        shared = {
            v: binding[v]
            for a in disjunct
            for v in a.variables()
            if v in binding
        }
        if next(match_atoms(disjunct, instance, initial=shared), None) is not None:
            return True
    return False


def _guard(bound: Optional[int], deadline: Optional[float], default: int):
    """A fallback bound: applied only when nothing else limits the run."""
    if bound is not None:
        return bound
    return default if deadline is None else None


def disjunctive_chase(
    instance: Instance,
    dependencies: Sequence[Dependency],
    *,
    null_prefix: str = "D",
    tracer: Optional[Tracer] = None,
    branch_root: str = "b",
    limits: Optional[Limits] = None,
    budget: Optional[Budget] = None,
    evaluation: Optional[str] = None,
    profiler: Optional[ChaseProfiler] = None,
) -> Branches:
    """Chase *instance* with disjunctive tgds; return the branch instances.

    Plain tgds are accepted too (treated as one-disjunct disjunctions).
    Matching is syntactic; inequality guards hold between distinct values.
    Branches are *full* instances (input facts plus generated facts);
    callers typically restrict to the source schema afterwards.

    Triggers are selected canonically — first dtgd in declaration order
    with an unsatisfied match, smallest match by
    :func:`~repro.logic.delta.binding_sort_key` — and, by default,
    *semi-naively*: each branch carries a forked
    :class:`~repro.logic.delta.TriggerIndex` plus per-dtgd agendas of
    open triggers, and a child only re-matches against the facts its
    disjunct added (:func:`~repro.logic.delta.match_atoms_delta`)
    instead of the whole instance.  ``evaluation="naive"`` (or
    ``REPRO_NAIVE_CHASE=1``) re-matches every branch from scratch; both
    modes fire identical triggers and build identical branch trees.

    With a *tracer*, the branch genealogy is emitted as
    ``BranchOpened``/``BranchClosed`` events (*branch_root* names the
    root; children append ``.<disjunct index>``), and every disjunct
    firing carries its branch id, so the provenance graph can replay
    each finished branch exactly.

    Resource governance: pass ``limits`` / ``budget`` as for
    :func:`repro.chase.standard.chase`.  In the default raise mode a
    branch exceeding the round bound raises
    :class:`ChaseNonTermination` and frontier explosion raises
    :class:`repro.errors.BudgetExhausted` (a ``RuntimeError``); in
    partial mode the chase stops and returns the worlds explored so far,
    tagged via ``Branches.exhausted``.

    With a *profiler* (:class:`repro.obs.profile.ChaseProfiler`) each
    fired trigger's selection-and-fork block is attributed to its dtgd,
    **branch-aware**: cells carry the id of the world being extended,
    so hot dependencies can be pinned to the branch lineages that pay
    for them.  ``considered`` counts the agenda entries the canonical
    selection examined for that firing.
    """
    dtgds: List[DisjunctiveTgd] = list(iter_disjunctive(dependencies))
    if tracer is None:
        tracer = current_tracer()
    evaluation = resolve_evaluation(evaluation)
    budget = resolve_budget(limits, budget, _LEGACY_LIMITS)
    lim = budget.limits
    guard_rounds = _guard(lim.max_rounds, lim.deadline, DEFAULT_MAX_ROUNDS)
    guard_branches = _guard(lim.max_branches, lim.deadline, DEFAULT_MAX_BRANCHES)

    finished = Branches()
    # Frontier entries: (instance, rounds, branch id, delta state).
    # Delta state is (TriggerIndex, per-dtgd agendas) under semi-naive
    # evaluation, None under naive (agendas are then rebuilt per pop).
    if evaluation == "delta":
        root_index = TriggerIndex(instance)
        root_state = (
            root_index,
            [_sorted_matches(dtgd, root_index) for dtgd in dtgds],
        )
    else:
        root_state = None
    frontier: List[tuple] = [(instance, 0, branch_root, root_state)]
    seen: Set[Instance] = set()
    # Branch lifecycle also feeds the progress ticker's per-branch
    # breakdown.  getattr-guarded: the supervisor installs a heartbeat
    # shim in workers that only duck-types heartbeat().
    _branch_note = getattr(budget.reporter, "branch_event", None)

    def note_branch(kind: str, reason: Optional[str] = None) -> None:
        if _branch_note is not None:
            _branch_note(kind, reason)

    note_branch("opened")
    if tracer is not None:
        tracer.emit(BranchOpened(branch=branch_root))

    def flush_exhausted(pending: List[tuple]) -> None:
        """Partial mode: unfinished worlds become results, tagged closed."""
        for inst, _rounds, br, _state in pending:
            if inst not in seen:
                seen.add(inst)
                finished.append(inst)
            note_branch("closed", "exhausted")
            if tracer is not None:
                tracer.emit(
                    BranchClosed(branch=br, reason="exhausted", facts=len(inst))
                )

    with maybe_span(tracer, "disjunctive_chase", input_facts=len(instance)):
        while frontier:
            width = len(frontier) + len(finished)
            exhausted = budget.checkpoint("disjunctive_chase")
            if (
                exhausted is None
                and guard_branches is not None
                and width > guard_branches
            ):
                exhausted = budget.mark(
                    "branches", "disjunctive_chase", guard_branches, width
                )
            if exhausted is not None:
                report_exhaustion(tracer, exhausted)
                if lim.raises:
                    if exhausted.resource == "branches":
                        raise BudgetExhausted(
                            "disjunctive chase exceeded "
                            f"max_branches={guard_branches}",
                            diagnosis=exhausted,
                        )
                    budget.raise_exhausted()
                flush_exhausted(frontier)
                finished.exhausted = exhausted
                return finished
            current, rounds, branch, state = frontier.pop()
            if guard_rounds is not None and rounds > guard_rounds:
                exhausted = budget.mark(
                    "rounds", "disjunctive_chase", guard_rounds, rounds
                )
                note_branch("closed", "nonterminating")
                if tracer is not None:
                    tracer.emit(
                        BranchClosed(
                            branch=branch,
                            reason="nonterminating",
                            facts=len(current),
                        )
                    )
                report_exhaustion(tracer, exhausted)
                if lim.raises:
                    raise ChaseNonTermination(
                        f"disjunctive chase branch exceeded {guard_rounds} rounds",
                        diagnosis=exhausted,
                    )
                # The diverging world still flushes as a partial result,
                # but its branch was already noted closed above.
                if current not in seen:
                    seen.add(current)
                    finished.append(current)
                if tracer is not None:
                    tracer.emit(
                        BranchClosed(
                            branch=branch, reason="exhausted", facts=len(current)
                        )
                    )
                flush_exhausted(frontier)
                finished.exhausted = exhausted
                return finished
            if profiler is not None:
                pop_started = time.perf_counter()
                scanned = [0]
                pop_facts = pop_nulls = 0
            else:
                scanned = None
            if state is None:
                index = None
                agendas = [_sorted_matches(dtgd, current) for dtgd in dtgds]
            else:
                index, agendas = state
            trigger = _select_trigger(dtgds, agendas, current, scanned)
            if trigger is None:
                if current not in seen:
                    seen.add(current)
                    finished.append(current)
                    note_branch("closed", "finished")
                    if tracer is not None:
                        tracer.emit(
                            BranchClosed(
                                branch=branch, reason="finished", facts=len(current)
                            )
                        )
                else:
                    note_branch("closed", "duplicate")
                    if tracer is not None:
                        tracer.emit(
                            BranchClosed(
                                branch=branch, reason="duplicate", facts=len(current)
                            )
                        )
                continue
            dtgd_index, dtgd, binding = trigger
            note_branch("forked")
            factory = NullFactory.avoiding(current.active_domain, prefix=null_prefix)
            for disjunct_index, disjunct in enumerate(dtgd.disjuncts):
                full = dict(binding)
                minted = []
                for var in sorted(dtgd.existential_variables(disjunct_index)):
                    fresh = factory.fresh()
                    full[var] = fresh
                    minted.append((var.name, fresh))
                if profiler is not None:
                    pop_nulls += len(minted)
                if index is None:
                    accumulator = InstanceBuilder(current)
                else:
                    accumulator = index.fork()
                child_branch = f"{branch}.{disjunct_index}"
                note_branch("opened")
                added = []
                for atom in disjunct:
                    f = atom.instantiate(full)
                    if accumulator.add(f):
                        added.append(f)
                if profiler is not None:
                    pop_facts += len(added)
                if tracer is not None:
                    tgd_text = str(dtgd)
                    tracer.emit(
                        BranchOpened(
                            branch=child_branch,
                            parent=branch,
                            disjunct_index=disjunct_index,
                            round=rounds + 1,
                        )
                    )
                    for var_name, fresh in minted:
                        tracer.emit(
                            NullMinted(
                                null=fresh,
                                var=var_name,
                                tgd=tgd_text,
                                tgd_index=dtgd_index,
                                round=rounds + 1,
                                branch=child_branch,
                            )
                        )
                    tracer.emit(
                        TriggerFired(
                            tgd=tgd_text,
                            tgd_index=dtgd_index,
                            round=rounds + 1,
                            binding=freeze_binding(binding),
                            added=tuple(added),
                            premises=tuple(
                                a.instantiate(binding) for a in dtgd.premise
                            ),
                            minted=tuple(minted),
                            branch=child_branch,
                            disjunct_index=disjunct_index,
                        )
                    )
                child = accumulator.snapshot()
                budget.charge("disjunctive_chase", facts=len(child))
                if child not in seen:
                    if index is None:
                        child_state = None
                    else:
                        # The child resumes its own delta set: only the
                        # disjunct's added facts need re-matching.  The
                        # fired entry is stripped everywhere — each
                        # disjunct's facts witness it in that child.
                        delta: dict = {}
                        for f in added:
                            delta.setdefault(f.relation, set()).add(f.values)
                        child_agendas = []
                        for di, d in enumerate(dtgds):
                            base = (
                                agendas[di][1:]
                                if di == dtgd_index
                                else list(agendas[di])
                            )
                            fresh_entries = [
                                (binding_sort_key(b), b)
                                for b in match_atoms_delta(
                                    d.premise, accumulator, delta, d.guards
                                )
                            ]
                            fresh_entries.sort(key=lambda entry: entry[0])
                            child_agendas.append(
                                _merge_agendas(base, fresh_entries)
                            )
                        child_state = (accumulator, child_agendas)
                    frontier.append((child, rounds + 1, child_branch, child_state))
                else:
                    note_branch("closed", "duplicate")
                    if tracer is not None:
                        tracer.emit(
                            BranchClosed(
                                branch=child_branch,
                                reason="duplicate",
                                facts=len(child),
                            )
                        )
            if profiler is not None:
                note_dependency_cell(
                    profiler,
                    tracer,
                    fingerprint_dependency(dtgd),
                    str(dtgd),
                    rounds + 1,
                    pop_started,
                    time.perf_counter(),
                    scanned[0],
                    len(dtgd.disjuncts),
                    pop_facts,
                    pop_nulls,
                    branch=branch,
                )
    return finished


def _sorted_matches(dtgd: DisjunctiveTgd, source) -> List[tuple]:
    """All premise matches over *source* as a key-sorted agenda.

    Entries are ``(binding_sort_key(b), b)`` pairs; the canonical key
    order makes trigger selection content-determined (independent of
    enumeration order), which is what lets per-branch delta agendas and
    the naive full re-match agree on every firing.
    """
    entries = [
        (binding_sort_key(binding), binding)
        for binding in match_atoms(dtgd.premise, source, dtgd.guards)
    ]
    entries.sort(key=lambda entry: entry[0])
    return entries


def _merge_agendas(base: List[tuple], fresh: List[tuple]) -> List[tuple]:
    """Merge two key-sorted agendas (delta matches never duplicate base)."""
    if not fresh:
        return base
    if not base:
        return fresh
    merged: List[tuple] = []
    i = j = 0
    while i < len(base) and j < len(fresh):
        if base[i][0] <= fresh[j][0]:
            merged.append(base[i])
            i += 1
        else:
            merged.append(fresh[j])
            j += 1
    merged.extend(base[i:])
    merged.extend(fresh[j:])
    return merged


def _select_trigger(
    dtgds: List[DisjunctiveTgd],
    agendas: List[List[tuple]],
    instance: Instance,
    scanned: Optional[list] = None,
):
    """First unsatisfied trigger in canonical (dtgd, binding-key) order.

    Scans each dtgd's agenda in key order, *permanently dropping*
    satisfied entries along the way: satisfaction is monotone under fact
    addition, and every descendant branch is a superset of *instance*,
    so a dropped entry could never fire again on this lineage.  On
    success the fired entry is left at the head of its agenda (the
    caller strips it when building child agendas, since each disjunct's
    added facts witness it in every child).

    *scanned*, when given, is a one-element accumulator the profiler
    uses: ``scanned[0]`` gains the number of agenda entries examined.
    """
    for dtgd_index, dtgd in enumerate(dtgds):
        agenda = agendas[dtgd_index]
        satisfied = 0
        for _key, binding in agenda:
            if scanned is not None:
                scanned[0] += 1
            if _trigger_satisfied(dtgd, binding, instance):
                satisfied += 1
                continue
            if satisfied:
                del agenda[:satisfied]
            return dtgd_index, dtgd, binding
        agenda.clear()
    return None


def minimize_branches(branches: Iterable[Instance]) -> List[Instance]:
    """Keep only hom-minimal branches (an antichain under ``→``).

    Dropping a branch ``V`` when some kept ``V'`` has ``V' → V`` preserves
    all three universal-faithfulness conditions of Definition 6.1:
    condition (1) is per-element, and for condition (3) any ``V → I'`` is
    witnessed by ``V' → V → I'``.  Hom-equivalent branches collapse to one
    representative.
    """
    pool = sorted(set(branches), key=lambda inst: (len(inst), str(inst)))
    kept: List[Instance] = []
    for candidate in pool:
        if any(is_homomorphic(existing, candidate) for existing in kept):
            continue
        kept = [
            existing for existing in kept if not is_homomorphic(candidate, existing)
        ]
        kept.append(candidate)
    return kept


def reverse_disjunctive_chase(
    target_instance: Instance,
    dependencies: Sequence[Dependency],
    result_relations: Sequence[str] | None = None,
    max_nulls: int = 8,
    *,
    minimize: bool = True,
    tracer: Optional[Tracer] = None,
    limits: Optional[Limits] = None,
    budget: Optional[Budget] = None,
    evaluation: Optional[str] = None,
    profiler: Optional[ChaseProfiler] = None,
) -> Branches:
    """Reverse data exchange: chase a target instance back to source worlds.

    Branches first over the quotients of *target_instance* (worlds of null
    identifications), then runs the disjunctive chase in each world.  When
    *result_relations* is given, each branch is restricted to those
    relations (the source schema); otherwise branches keep all facts.

    With a *tracer*, each quotient world becomes a branch-genealogy root
    named ``q<index>`` and the per-world chases trace under it.

    One :class:`~repro.limits.Budget` (built from *limits*, or passed in
    directly) spans the whole composite — quotient enumeration and every
    per-world chase — so a deadline governs the operation end to end.
    ``max_nulls`` is *not* a limit: it bounds the quotient enumeration
    and is part of the operation's semantics.

    Returns a hom-minimal antichain of branch instances unless
    ``minimize=False`` (the raw set is exponentially redundant).
    """
    if tracer is None:
        tracer = current_tracer()
    budget = resolve_budget(limits, budget, _LEGACY_LIMITS)
    collected: List[Instance] = []
    exhausted: Optional[Exhausted] = None
    for quotient_index, quotient in enumerate(
        enumerate_quotients(target_instance, max_nulls=max_nulls)
    ):
        branches = disjunctive_chase(
            quotient.instance,
            dependencies,
            tracer=tracer,
            branch_root=f"q{quotient_index}",
            budget=budget,
            evaluation=evaluation,
            profiler=profiler,
        )
        for branch in branches:
            if result_relations is not None:
                branch = branch.restrict(result_relations)
            collected.append(branch)
        if branches.exhausted is not None:
            exhausted = branches.exhausted
            break
    if minimize:
        result = Branches(minimize_branches(collected))
    else:
        result = Branches(
            sorted(set(collected), key=lambda inst: (len(inst), str(inst)))
        )
    result.exhausted = exhausted
    return result
