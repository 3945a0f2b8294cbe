"""Schema mappings: a source schema, a target schema, and dependencies.

A schema mapping ``M = (S, T, Σ)`` (Section 2) is held syntactically; its
semantic view — the set of pairs ``(I, J)`` with ``(I, J) ⊨ Σ`` — is
available through :meth:`SchemaMapping.satisfies`.  The class is
direction-agnostic: a "reverse" mapping from the target schema back to the
source schema is simply a mapping whose source is that target schema.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..instance import Instance
from ..logic.atoms import Atom
from ..logic.dependencies import Dependency, DisjunctiveTgd, Tgd, iter_disjunctive
from ..logic.matching import match_atoms
from ..parsing.parser import parse_dependencies
from ..schema import Schema


def _infer_schema(atoms: Iterable[Atom]) -> Schema:
    arities: Dict[str, int] = {}
    for atom in atoms:
        known = arities.get(atom.relation)
        if known is not None and known != atom.arity:
            raise ValueError(
                f"relation {atom.relation!r} used with arities {known} and {atom.arity}"
            )
        arities[atom.relation] = atom.arity
    return Schema.from_arities(arities)


class SchemaMapping:
    """An immutable schema mapping ``(source, target, Σ)``."""

    def __init__(
        self,
        dependencies: Sequence[Dependency],
        source: Optional[Schema] = None,
        target: Optional[Schema] = None,
    ) -> None:
        """Build from *dependencies*; schemas are inferred when omitted."""
        self._dependencies: Tuple[Dependency, ...] = tuple(dependencies)
        premise_atoms = [
            a for dep in self._dependencies for a in dep.premise
        ]
        conclusion_atoms: List[Atom] = []
        for dep in iter_disjunctive(self._dependencies):
            for disjunct in dep.disjuncts:
                conclusion_atoms.extend(disjunct)
        self._source = source if source is not None else _infer_schema(premise_atoms)
        self._target = target if target is not None else _infer_schema(conclusion_atoms)
        self._validate_sides(premise_atoms, conclusion_atoms)

    def _validate_sides(
        self, premise_atoms: List[Atom], conclusion_atoms: List[Atom]
    ) -> None:
        for atom in premise_atoms:
            if atom.relation not in self._source:
                raise ValueError(f"premise atom {atom} outside source schema")
            if self._source.arity(atom.relation) != atom.arity:
                raise ValueError(f"premise atom {atom} has wrong arity")
        for atom in conclusion_atoms:
            if atom.relation not in self._target:
                raise ValueError(f"conclusion atom {atom} outside target schema")
            if self._target.arity(atom.relation) != atom.arity:
                raise ValueError(f"conclusion atom {atom} has wrong arity")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_text(
        cls,
        text: str,
        source: Optional[Schema] = None,
        target: Optional[Schema] = None,
    ) -> "SchemaMapping":
        """Parse a mapping from dependency text (one dependency per line)."""
        return cls(parse_dependencies(text), source=source, target=target)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def digest(self) -> str:
        """A stable structural digest of ``(S, T, Σ)`` (hex SHA-256).

        Serializes the dependency list in declaration order plus both
        schemas' name/arity signatures.  Mappings with equal digests are
        structurally identical, so the digest is a sound cache key for
        anything computed from the mapping alone (engine caches, audit
        verdicts, compiled plans).
        """
        cached = getattr(self, "_digest", None)
        if cached is None:
            h = hashlib.sha256()
            for dep in self._dependencies:
                h.update(str(dep).encode("utf-8"))
                h.update(b"\n")
            for schema in (self._source, self._target):
                h.update(b"|")
                for name in sorted(schema.names):
                    h.update(f"{name}/{schema.arity(name)};".encode("utf-8"))
            cached = h.hexdigest()
            self._digest = cached
        return cached

    @property
    def dependencies(self) -> Tuple[Dependency, ...]:
        """The mapping's dependencies, in declaration order."""
        return self._dependencies

    @property
    def source(self) -> Schema:
        """The source schema (inferred from premises when not given)."""
        return self._source

    @property
    def target(self) -> Schema:
        """The target schema (inferred from conclusions when not given)."""
        return self._target

    def is_plain_tgds(self) -> bool:
        """True when Σ is a set of plain (guard-free, non-disjunctive) tgds.

        This is the paper's headline class "schema mappings specified by
        s-t tgds" for which the main theorems hold.
        """
        return all(isinstance(d, Tgd) and d.is_plain() for d in self._dependencies)

    def is_full(self) -> bool:
        """True when every dependency is full (no existential variables)."""
        return all(d.is_full() for d in self._dependencies)

    def is_disjunctive(self) -> bool:
        """True when some dependency has two or more disjuncts."""
        return any(
            isinstance(d, DisjunctiveTgd) and d.is_disjunctive()
            for d in self._dependencies
        )

    def uses_constant_guard(self) -> bool:
        """True when any dependency carries a constant guard."""
        return any(d.uses_constant_guard() for d in self._dependencies)

    def uses_inequality(self) -> bool:
        """True when any dependency carries an inequality guard."""
        return any(d.uses_inequality() for d in self._dependencies)

    def __repr__(self) -> str:
        deps = "; ".join(str(d) for d in self._dependencies)
        return f"SchemaMapping({deps})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchemaMapping):
            return NotImplemented
        return (
            self._dependencies == other._dependencies
            and self._source == other._source
            and self._target == other._target
        )

    def __hash__(self) -> int:
        return hash((self._dependencies, self._source, self._target))

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def satisfies(self, source_instance: Instance, target_instance: Instance) -> bool:
        """The semantic view: whether ``(I, J) ⊨ Σ`` holds.

        For every premise match in the source instance whose guards hold,
        some disjunct must be witnessed in the target instance (sharing the
        premise binding on frontier variables).
        """
        for dep in iter_disjunctive(self._dependencies):
            for binding in match_atoms(dep.premise, source_instance, dep.guards):
                if not self._some_disjunct_holds(dep, binding, target_instance):
                    return False
        return True

    @staticmethod
    def _some_disjunct_holds(
        dep: DisjunctiveTgd, binding: dict, target_instance: Instance
    ) -> bool:
        for disjunct in dep.disjuncts:
            shared = {
                v: binding[v]
                for a in disjunct
                for v in a.variables()
                if v in binding
            }
            if next(match_atoms(disjunct, target_instance, initial=shared), None):
                return True
        return False

    def is_solution(self, source_instance: Instance, target_instance: Instance) -> bool:
        """``J ∈ Sol_M(I)`` — alias of :meth:`satisfies`."""
        return self.satisfies(source_instance, target_instance)

    # ------------------------------------------------------------------
    # Data exchange
    # ------------------------------------------------------------------
    #
    # These methods delegate to the module-level default ExchangeEngine
    # (lazily imported to keep the layering acyclic), so every existing
    # call site gains content-addressed caching transparently.  The
    # chase is deterministic, hence a cache hit is indistinguishable
    # from a recomputation — down to null names.

    def exchange(
        self, source_instance: Instance, variant: str = "restricted", limits=None
    ):
        """``chase_M(I)`` as a normalized ``ExchangeResult``.

        The recommended entry point: carries the target restriction
        (``.instance``), the full chased instance (``.full``), the
        generated facts, chase work counters (``.steps``, ``.rounds``)
        and cache provenance.  :meth:`chase` is the shorthand for
        ``.instance``.  ``limits`` is an optional
        :class:`repro.limits.Limits` governing the chase (partial,
        tagged results on exhaustion).
        """
        from ..engine import get_default_engine

        return get_default_engine().exchange(
            self, source_instance, variant=variant, limits=limits
        )

    def reverse(
        self,
        target_instance: Instance,
        max_nulls: int = 8,
        minimize: bool = True,
        take_core: bool = False,
        limits=None,
    ):
        """Reverse exchange as a normalized ``ReverseResult``.

        Dispatches on this mapping's shape: plain tgds chase (one
        candidate), disjunctive tgds branch (a candidate set).  The
        disjunctive chase raises past 32 rounds per branch or 10,000
        branches unless ``limits`` (a :class:`repro.limits.Limits`)
        says otherwise.  :meth:`reverse_chase` always branches instead.
        """
        from ..engine import get_default_engine

        return get_default_engine().reverse(
            self,
            target_instance,
            max_nulls=max_nulls,
            minimize=minimize,
            take_core=take_core,
            limits=limits,
        )

    def chase(
        self, source_instance: Instance, variant: str = "restricted", limits=None
    ) -> Instance:
        """``chase_M(I)`` — the canonical (extended) universal solution.

        Returns the target-schema restriction of the chased instance.
        Requires Σ to consist of plain or guarded tgds (no disjunction).
        Shorthand for ``exchange(...).instance``, the shape the paper's
        constructions (and every ``inverses`` module) compose with.
        """
        from ..engine import get_default_engine

        return get_default_engine().chase(
            self, source_instance, variant=variant, limits=limits
        )

    def reverse_chase(
        self,
        target_instance: Instance,
        max_nulls: int = 8,
        minimize: bool = True,
        limits=None,
    ) -> List[Instance]:
        """Disjunctive chase of a target instance over this mapping.

        Results are restricted to the mapping's *target* schema —
        i.e., to the conclusion side.

        For a reverse mapping ``M' = (T, S, Σ')`` this returns the set
        ``chase_{M'}(J)`` of Definition 6.1 — the candidate recovered
        source instances.  Unlike :meth:`reverse` it always runs the
        quotient-branching disjunctive chase, even for plain-tgd
        mappings, and returns the raw branch list; the faithfulness and
        information-loss checks depend on exactly that.
        """
        from ..engine import get_default_engine

        return get_default_engine().reverse_chase(
            self,
            target_instance,
            max_nulls=max_nulls,
            minimize=minimize,
            limits=limits,
        )
