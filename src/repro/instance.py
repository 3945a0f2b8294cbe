"""Database instances over constants and labeled nulls.

An instance assigns to each relation symbol a finite set of tuples over
``Const ∪ Null`` (Section 2 of the paper).  Unlike the classical data
exchange setting, *source* instances here may contain nulls — that is the
whole point of the paper — so a single representation serves both sides of
a schema mapping.

``Instance`` is immutable and hashable, and since the store refactor it
is a thin **facade over an** :class:`~repro.store.InstanceStore`: the
default backend is :class:`~repro.store.MemoryStore` (the historical
in-heap representation, behavior-identical), and
:class:`~repro.store.SqliteStore` keeps large instances out of the
Python heap.  The chase and the disjunctive chase build new instances
through :class:`InstanceBuilder`, and every set-like operation (union,
substitution, restriction) returns a fresh in-memory instance.

``Fact``/``fact`` and the digest serialization live in
:mod:`repro.facts` (shared with the store backends) and are re-exported
here for compatibility.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

from .facts import Fact, _digest_value, fact  # noqa: F401  (re-exports)
from .schema import Schema
from .store.base import InstanceStore
from .store.memory import MemoryStore
from .terms import (
    Const,
    Null,
    NullFactory,
    Value,
)

__all__ = ["Fact", "Instance", "InstanceBuilder", "fact"]


class Instance:
    """An immutable finite relational instance (a facade over a store).

    Facts are stored per relation for fast pattern matching; the backing
    store also tracks the active domain, null set, and content digest.
    Instances compare equal exactly when they contain the same facts
    (set equality; homomorphic equivalence is a separate, weaker notion
    provided by :mod:`repro.homs`) — regardless of which backend either
    side lives in.
    """

    __slots__ = ("_store", "_hash", "_digest_cache", "_facts_cache")

    def __init__(
        self,
        facts: Iterable[Fact] = (),
        schema: Optional[Schema] = None,
        store: Optional[InstanceStore] = None,
    ) -> None:
        """Build from *facts*; a *schema* adds arity validation.

        Alternatively wrap an existing *store* (it is frozen first;
        passing both facts and a store is an error).  The facade never
        mutates its store — immutability invariants hang off that.
        """
        if store is not None:
            if facts:
                raise ValueError("pass either facts or a store, not both")
            if schema is not None:
                raise ValueError(
                    "schema validation applies at store build time; "
                    "cannot validate an existing store"
                )
            store.freeze()
            self._store: InstanceStore = store
        else:
            memory = MemoryStore(schema=schema)
            memory.add_all(facts)
            memory.freeze()
            self._store = memory
        self._hash: Optional[int] = None
        self._digest_cache: Optional[str] = None
        self._facts_cache: Optional[FrozenSet[Fact]] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, *facts_: Fact) -> "Instance":
        """Build an instance from facts given positionally."""
        return cls(facts_)

    @classmethod
    def parse(cls, text: str) -> "Instance":
        """Parse ``"P(a, X), Q(b, 1)"`` using the token convention.

        Lowercase/number tokens are constants, uppercase tokens are nulls.
        An empty string parses to the empty instance.
        """
        text = text.strip()
        if not text:
            return cls()
        facts_ = []
        depth = 0
        start = 0
        pieces = []
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                pieces.append(text[start:i])
                start = i + 1
        pieces.append(text[start:])
        for piece in pieces:
            piece = piece.strip()
            if not piece:
                continue
            if not piece.endswith(")") or "(" not in piece:
                raise ValueError(f"cannot parse fact {piece!r}")
            name, _, rest = piece.partition("(")
            args = rest[:-1].strip()
            tokens = [t for t in (s.strip() for s in args.split(","))] if args else []
            facts_.append(fact(name.strip(), *tokens))
        return cls(facts_)

    # ------------------------------------------------------------------
    # The store behind the facade
    # ------------------------------------------------------------------

    @property
    def store(self) -> InstanceStore:
        """The (frozen) backend this instance reads from."""
        return self._store

    # ------------------------------------------------------------------
    # Set-like protocol
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Fact]:
        return iter(sorted(self.facts, key=Fact.sort_key))

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, f: object) -> bool:
        return f in self._store

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.facts == other.facts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.facts)
        return self._hash

    def __le__(self, other: "Instance") -> bool:
        """Subset on fact sets (the paper's ``I1 ⊆ I2``)."""
        return self.facts <= other.facts

    def __repr__(self) -> str:
        inner = ", ".join(str(f) for f in self)
        return f"Instance({{{inner}}})"

    def __str__(self) -> str:
        if self.is_empty():
            return "{}"
        return "{" + ", ".join(str(f) for f in self) + "}"

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def digest(self) -> str:
        """A stable content digest of the fact set (hex SHA-256).

        Two instances have equal digests exactly when they are equal as
        fact sets (up to hash collision): facts are serialized in sorted
        order with type-tagged values, so ``Const(3)``, ``Const("3")``,
        and ``Null("3")`` all digest differently.  The engine's
        content-addressed caches key on this.  The digest is
        backend-independent: memory- and SQLite-backed instances with
        the same facts digest identically (``SqliteStore`` streams it
        one relation at a time).
        """
        if self._digest_cache is None:
            self._digest_cache = self._store.digest()
        return self._digest_cache

    @property
    def facts(self) -> FrozenSet[Fact]:
        """Every fact in the instance, as an immutable set.

        On a disk-backed store this materializes (and caches) the fact
        set in memory — fine for algebra on results, defeats the point
        for instances meant to stay out-of-core (iterate
        ``store.facts()`` or use ``digest()``/``len()`` instead).
        """
        if self._facts_cache is None:
            self._facts_cache = self._store.fact_set()
        return self._facts_cache

    @property
    def relation_names(self) -> Tuple[str, ...]:
        """Sorted names of the relations with at least one fact."""
        return self._store.relation_names()

    def tuples(self, relation: str):
        """Return the tuples of *relation* (empty if absent)."""
        return self._store.tuples(relation)

    def tuples_at(
        self, relation: str, position: int, value: Value
    ) -> Tuple[Tuple[Value, ...], ...]:
        """Tuples of *relation* carrying *value* at *position*.

        Position-indexed candidate lookup (the matching layer's hot
        path): the memory backend answers from a lazily built
        per-(relation, position, value) hash index, the SQLite backend
        from a per-column B-tree index.
        """
        return self._store.tuples_at(relation, position, value)

    @property
    def active_domain(self) -> FrozenSet[Value]:
        """All values occurring in the instance."""
        return self._store.active_domain()

    @property
    def nulls(self) -> FrozenSet[Null]:
        """All labeled nulls occurring in the instance."""
        return self._store.nulls()

    @property
    def constants(self) -> FrozenSet[Const]:
        """All constants occurring in the instance."""
        return frozenset(
            v for v in self._store.active_domain() if isinstance(v, Const)
        )

    def is_ground(self) -> bool:
        """True when the instance contains no nulls."""
        return not self._store.nulls()

    def is_empty(self) -> bool:
        """True when the instance holds no facts at all."""
        return len(self._store) == 0

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def union(self, other: "Instance") -> "Instance":
        """A new instance holding the facts of both."""
        return Instance(list(self.facts) + list(other.facts))

    def difference(self, other: "Instance") -> "Instance":
        """A new instance with *other*'s facts removed."""
        return Instance(self.facts - other.facts)

    def restrict(self, relations: Iterable[str]) -> "Instance":
        """Keep only the facts over the given relation names."""
        keep = set(relations)
        return Instance(f for f in self.facts if f.relation in keep)

    def substitute(self, mapping: Mapping[Value, Value]) -> "Instance":
        """Apply a value mapping to every fact (identity outside its domain).

        This is how a homomorphism (or a quotient of nulls) is applied to an
        instance; collapsing facts is allowed and handled by set semantics.
        """
        return Instance(f.substitute(mapping) for f in self.facts)

    def rename_nulls_apart(self, avoid: "Instance", prefix: str = "R") -> "Instance":
        """Rename this instance's nulls so they are disjoint from *avoid*'s."""
        clashes = self.nulls & avoid.nulls
        if not clashes:
            return self
        factory = NullFactory.avoiding(
            self.active_domain | avoid.active_domain, prefix=prefix
        )
        renaming: Dict[Value, Value] = {n: factory.fresh() for n in sorted(clashes)}
        return self.substitute(renaming)

    def freshen_nulls(self, prefix: str = "F") -> "Instance":
        """Rename every null to a fresh one with the given prefix."""
        factory = NullFactory(prefix=prefix)
        renaming: Dict[Value, Value] = {n: factory.fresh() for n in sorted(self.nulls)}
        return self.substitute(renaming)

    def map_values(self, fn: Callable[[Value], Value]) -> "Instance":
        """Apply an arbitrary value function to every position."""
        return Instance(
            Fact(f.relation, tuple(fn(v) for v in f.values)) for f in self.facts
        )

    def schema(self) -> Schema:
        """Infer the minimal schema this instance is over."""
        arities: Dict[str, int] = {}
        for f in self.facts:
            known = arities.get(f.relation)
            if known is not None and known != f.arity:
                raise ValueError(
                    f"relation {f.relation!r} used with arities {known} and {f.arity}"
                )
            arities[f.relation] = f.arity
        return Schema.from_arities(arities)


class InstanceBuilder:
    """A mutable accumulator of facts, for the chase's inner loops.

    Deduplicates eagerly, tracks the null set so the chase can mint fresh
    nulls without rescanning, and exposes a live per-relation ``tuples``
    view so satisfaction checks can run against the builder without
    snapshotting (the restricted chase's hot path).  Wraps a *mutable*
    store — :class:`~repro.store.MemoryStore` by default; pass
    ``store=`` to accumulate into another backend.
    """

    def __init__(
        self,
        base: Optional[Instance] = None,
        store: Optional[InstanceStore] = None,
    ) -> None:
        """Start empty, or pre-seeded with *base*'s facts and domain."""
        if store is not None:
            self._store: InstanceStore = store
            if base is not None:
                store.add_all(base.facts)
        elif base is not None:
            self._store = MemoryStore.from_instance(base)
        else:
            self._store = MemoryStore()

    @property
    def store(self) -> InstanceStore:
        """The mutable backend facts accumulate into."""
        return self._store

    def add(self, f: Fact) -> bool:
        """Add a fact; return True when it was new."""
        return self._store.add(f)

    def tuples(self, relation: str):
        """Live view of the tuples of *relation*.

        Part of the matching-protocol duck type shared with
        :class:`Instance`."""
        return self._store.tuples(relation)

    def add_all(self, facts_: Iterable[Fact]) -> int:
        """Add many facts; return how many were new."""
        return self._store.add_all(facts_)

    def __contains__(self, f: Fact) -> bool:
        return f in self._store

    def __len__(self) -> int:
        return len(self._store)

    @property
    def values(self) -> set:
        """The active domain accumulated so far (mutable view)."""
        view = getattr(self._store, "values_view", None)
        if view is not None:
            return view()
        return set(self._store.active_domain())

    def snapshot(self) -> Instance:
        """Freeze the current contents into an :class:`Instance`."""
        return self._store.snapshot()
