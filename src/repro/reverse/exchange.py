"""Forward and reverse data-exchange pipelines.

The data exchange problem materializes a good target instance from a
source instance (the chase gives the canonical universal solution); the
*reverse* data exchange problem materializes a source instance from a
target instance via a reverse mapping — typically after an original
forward exchange, aiming to recover a source as close as possible to the
original (Section 3.2).

Two regimes:

* **chase-inverse** reverse mappings (plain tgds): the round trip
  recovers the source up to homomorphic equivalence — one instance;
* **maximum extended recovery** reverse mappings (disjunctive tgds): the
  round trip yields a *set* of candidate sources, one of which exports
  exactly the original's information (Definition 6.1's guarantees).

:func:`reverse_exchange` dispatches on the reverse mapping's shape and
returns a uniform :class:`~repro.engine.results.ReverseResult`.  Both
free functions route through the default :class:`repro.ExchangeEngine`
(or an explicitly passed one), so repeated exchanges hit the
content-addressed caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..engine.results import ReverseResult
from ..homs.search import is_hom_equivalent
from ..instance import Instance
from ..mappings.schema_mapping import SchemaMapping


def _engine(engine=None):
    if engine is not None:
        return engine
    from ..engine import get_default_engine

    return get_default_engine()


def forward_exchange(
    mapping: SchemaMapping, source: Instance, engine=None
) -> Instance:
    """Materialize the canonical universal solution ``chase_M(I)``.

    By Proposition 3.11 this is also an extended universal solution, even
    when the source contains nulls.
    """
    return _engine(engine).chase(mapping, source)


def reverse_exchange(
    reverse_mapping: SchemaMapping,
    target: Instance,
    max_nulls: int = 8,
    take_core: bool = True,
    engine=None,
) -> ReverseResult:
    """Materialize candidate source instances from a target instance.

    Plain-tgd reverse mappings use the standard chase (one candidate);
    disjunctive ones use the quotient-branching reverse chase (a
    hom-minimal antichain of candidates).  With *take_core* candidates are
    replaced by their cores — same information, smaller instances.
    """
    return _engine(engine).reverse(
        reverse_mapping, target, max_nulls=max_nulls, take_core=take_core
    )


def round_trip(
    mapping: SchemaMapping,
    reverse_mapping: SchemaMapping,
    source: Instance,
    max_nulls: int = 8,
    take_core: bool = True,
    engine=None,
) -> ReverseResult:
    """Forward exchange followed by reverse exchange."""
    eng = _engine(engine)
    return reverse_exchange(
        reverse_mapping,
        forward_exchange(mapping, source, engine=eng),
        max_nulls=max_nulls,
        take_core=take_core,
        engine=eng,
    )


@dataclass(frozen=True)
class RecoveryQuality:
    """How well a round trip recovered the original source (SB-5).

    ``hom_equivalent`` — some candidate is hom-equivalent to the original
    (perfect recovery up to nulls); ``fact_recall`` — the best fraction of
    original facts literally present in a candidate; ``candidates`` — the
    branch count.
    """

    hom_equivalent: bool
    fact_recall: float
    candidates: int


def recovery_quality(
    mapping: SchemaMapping,
    reverse_mapping: SchemaMapping,
    source: Instance,
    max_nulls: int = 8,
    engine=None,
) -> RecoveryQuality:
    """Measure round-trip recovery quality for one source instance.

    Skips core-folding of the candidates: cores preserve hom-equivalence
    and can only *shrink* literal fact overlap, so no reported metric
    changes, while the fold search is exponential on null-rich joins.
    """
    result = round_trip(
        mapping,
        reverse_mapping,
        source,
        max_nulls=max_nulls,
        take_core=False,
        engine=engine,
    )
    hom_equivalent = any(
        is_hom_equivalent(source, candidate) for candidate in result.candidates
    )
    if source.is_empty():
        recall = 1.0
    else:
        recall = max(
            len(source.facts & candidate.facts) / len(source.facts)
            for candidate in result.candidates
        )
    return RecoveryQuality(
        hom_equivalent=hom_equivalent,
        fact_recall=recall,
        candidates=len(result.candidates),
    )
