"""Cores of instances.

The *core* of an instance ``I`` is a minimal subinstance ``C ⊆ I`` such
that ``I → C`` (a minimal retract).  Cores are unique up to isomorphism and
give canonical representatives of homomorphic-equivalence classes: two
instances are hom-equivalent iff their cores are isomorphic.  The paper
works "up to homomorphic equivalence" throughout (e.g. chase-inverses
recover the source up to hom-equivalence), so cores are the natural
normal form for reporting recovered instances.

Algorithm: repeatedly look for a retraction into a proper subinstance
obtained by deleting one fact; replace the instance by the homomorphic
image; stop when no single-fact deletion admits a homomorphism.  (If any
proper retract exists, then a retract avoiding at least one particular
fact exists, so single-fact probing is complete.)
"""

from __future__ import annotations

from typing import Dict, Optional

from ..instance import Instance
from ..obs.tracer import current_tracer, maybe_span
from ..terms import Null, Value
from .search import find_homomorphism


def core(instance: Instance) -> Instance:
    """Return the core of *instance*.

    Ground instances are their own cores.  The result is a subinstance of
    the input (we retract rather than rename).
    """
    tracer = current_tracer()
    current = instance
    with maybe_span(tracer, "core", input_facts=len(instance)):
        while not current.is_ground():
            step = _fold_step(current)
            if step is None:
                break
            if tracer is not None:
                tracer.metrics.inc("core.folds")
            current = current.substitute(step)
    return current


def _fold_step(instance: Instance) -> Optional[Dict[Null, Value]]:
    """A homomorphism into a proper subinstance, or None if core already."""
    for f in sorted(instance.facts, key=lambda f: f.sort_key()):
        # Only facts containing nulls can be "folded away"; a ground fact
        # maps to itself under every homomorphism.
        if f.is_ground():
            continue
        smaller = Instance(instance.facts - {f})
        h = find_homomorphism(instance, smaller)
        if h is not None:
            return dict(h)
    return None


def is_core(instance: Instance) -> bool:
    """True when the instance has no proper retract."""
    return _fold_step(instance) is None


def retraction_to_core(instance: Instance) -> Dict[Null, Value]:
    """A homomorphism from *instance* onto its core.

    Composes the per-step retractions of :func:`core`, so
    ``instance.substitute(retraction_to_core(instance)) == core(instance)``;
    the identity on nulls that survive.
    """
    mapping: Dict[Null, Value] = {n: n for n in instance.nulls}
    current = instance
    while not current.is_ground():
        step = _fold_step(current)
        if step is None:
            break
        mapping = {
            n: (step.get(v, v) if isinstance(v, Null) else v)
            for n, v in mapping.items()
        }
        current = current.substitute(step)
    return mapping
