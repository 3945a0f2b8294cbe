"""Certain answers and reverse query answering (Section 6.2).

Forward direction: the certain answers of a conjunctive query q over the
target schema, for a source I under M, are ``⋂_{(I,J) ∈ M} q(J)``
(Definition 6.3); for tgd mappings this is computed as
``q(chase_M(I))↓`` [FKMP, TCS 2005].

Reverse direction: the source is gone and q is a *source* query; the
adopted semantics is ``certain_{e(M) ∘ e(M')}(q, I)`` for a maximum
extended recovery M'.  Theorem 6.5 computes it via the reverse chase::

    certain(q, I) = ( ⋂_{K ∈ chase_M'(chase_M(I))} q(K) )↓

and Theorem 6.4 says that when M' is an *extended inverse* the answer is
exactly ``q(I)↓`` — the best possible.

A brute-force oracle over explicit instance pools cross-validates both
computations in the tests.
"""

from __future__ import annotations

import itertools
from typing import Callable, FrozenSet, Iterable, List, Sequence, Tuple

from ..instance import Fact, Instance
from ..logic.queries import ConjunctiveQuery, certain_answers_over_set
from ..mappings.schema_mapping import SchemaMapping
from ..schema import Schema
from ..terms import Value


def certain_answers(
    mapping: SchemaMapping, query: ConjunctiveQuery, source: Instance
) -> FrozenSet[Tuple[Value, ...]]:
    """Certain answers of a target query: ``q(chase_M(I))↓``."""
    return query.evaluate_null_free(mapping.chase(source))


def reverse_certain_answers(
    mapping: SchemaMapping,
    reverse_mapping: SchemaMapping,
    query: ConjunctiveQuery,
    source: Instance,
    max_nulls: int = 8,
) -> FrozenSet[Tuple[Value, ...]]:
    """Reverse certain answers via Theorem 6.5.

    Chases the source forward with M, reverse-chases the result with M'
    (branch set K), and returns ``(⋂_{K} q(K))↓``.  For the theorem's
    guarantee, M must be s-t tgds and M' a maximum extended recovery
    specified by disjunctive tgds; the computation itself runs for any
    reverse mapping.
    """
    return reverse_certain_answers_from_target(
        reverse_mapping, query, mapping.chase(source), max_nulls=max_nulls
    )


def reverse_certain_answers_from_target(
    reverse_mapping: SchemaMapping,
    query: ConjunctiveQuery,
    target: Instance,
    max_nulls: int = 8,
) -> FrozenSet[Tuple[Value, ...]]:
    """Theorem 6.5 starting from a materialized target instance.

    The practically relevant entry point: the original source is no
    longer available, only the exchanged target is.
    """
    branches = reverse_mapping.reverse(target, max_nulls=max_nulls).candidates
    return certain_answers_over_set(query, branches)


def brute_force_certain_answers(
    query: ConjunctiveQuery,
    membership: Callable[[Instance], bool],
    candidates: Iterable[Instance],
) -> FrozenSet[Tuple[Value, ...]]:
    """Oracle: intersect ``q`` over every candidate passing *membership*.

    Used by the tests to cross-validate the chase-based computations on
    small explicit pools: *membership* encodes e.g.
    ``(I, ·) ∈ e(M) ∘ e(M')`` and *candidates* enumerates a bounded
    universe of instances.  Null-containing answer tuples are discarded,
    matching the ``↓`` convention.
    """
    return certain_answers_over_set(
        query, (inst for inst in candidates if membership(inst))
    )


def enumerate_instances(
    schema: Schema,
    values: Sequence[Value],
    max_facts: int,
) -> List[Instance]:
    """All instances over *schema* with at most *max_facts* facts.

    Facts are drawn from the given value pool.  Exponential — keep
    pools tiny (oracle use).
    """
    pool: List[Fact] = []
    for relation in schema:
        for combo in itertools.product(values, repeat=relation.arity):
            pool.append(Fact(relation.name, tuple(combo)))
    out: List[Instance] = []
    for size in range(max_facts + 1):
        for facts in itertools.combinations(pool, size):
            out.append(Instance(facts))
    return out
