"""The benchmark's frozen copy of the mappings it runs.

The forward and reverse mappings are the paper catalogue's
(``repro.workloads.scenarios``) as of the commit that defined this
benchmark, and the recoveries are what
``maximum_extended_recovery_for_full_tgds`` returned for them then.  They
are copied here as text so that a change to the program cannot change
the benchmark's inputs.  ``invertible`` / ``extended`` are the
catalogue's claims, used as the reference verdicts of ``audit``
requests (``None`` where the catalogue makes no claim).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Entry:
    name: str
    forward: str
    reverse: str
    source: Tuple[Tuple[str, int], ...]
    target: Tuple[Tuple[str, int], ...]
    invertible: Optional[bool]
    extended: Optional[bool]
    #: Maximum extended recovery of ``forward`` (full-tgd mappings only).
    recovery: Optional[str] = None
    #: A source query for reverse certain answers (full-tgd mappings only).
    query: Optional[str] = None


CATALOGUE: Dict[str, Entry] = {
    e.name: e
    for e in (
        Entry(
            "decomposition",
            "P(x, y, z) -> Q(x, y) & R(y, z)",
            "Q(x, y) -> EXISTS z . P(x, y, z)\nR(y, z) -> EXISTS x . P(x, y, z)",
            (("P", 3),), (("Q", 2), ("R", 2)), False, False,
            "Q(v0, v1) & v0 != v1 -> EXISTS w0 . P(v0, v1, w0)\n"
            "Q(v0, v0) -> EXISTS w0 . P(v0, v0, w0)\n"
            "R(v0, v1) & v0 != v1 -> EXISTS w0 . P(w0, v0, v1)\n"
            "R(v0, v0) -> EXISTS w0 . P(w0, v0, v0)",
            "q(x, z) :- P(x, y, z)",
        ),
        Entry(
            "union",
            "P(x) -> R(x)\nQ(x) -> R(x)",
            "R(x) -> P(x) | Q(x)",
            (("P", 1), ("Q", 1)), (("R", 1),), False, False,
            "R(v0) -> P(v0) | Q(v0)",
            "q(x) :- P(x)",
        ),
        Entry(
            "double_null",
            "P(x) -> EXISTS y . R(x, y)\nQ(y) -> EXISTS x . R(x, y)",
            "R(x, y) & Constant(x) -> P(x)\nR(x, y) & Constant(y) -> Q(y)",
            (("P", 1), ("Q", 1)), (("R", 2),), True, False,
        ),
        Entry(
            "path2",
            "P(x, y) -> EXISTS z . Q(x, z) & Q(z, y)",
            "Q(x, z) & Q(z, y) -> P(x, y)",
            (("P", 2),), (("Q", 2),), True, True,
        ),
        Entry(
            "self_join_target",
            "P(x, y) -> P'(x, y)\nT(x) -> P'(x, x)",
            "P'(x, y) & x != y -> P(x, y)\nP'(x, x) -> T(x) | P(x, x)",
            (("P", 2), ("T", 1)), (("P'", 2),), False, False,
            "P'(v0, v1) & v0 != v1 -> P(v0, v1)\n"
            "P'(v0, v0) -> P(v0, v0) | T(v0)",
            "q(x, y) :- P(x, y)",
        ),
        Entry(
            "copy",
            "P(x, y) -> P'(x, y)",
            "P'(x, y) -> P(x, y)",
            (("P", 2),), (("P'", 2),), True, True,
            "P'(v0, v1) & v0 != v1 -> P(v0, v1)\nP'(v0, v0) -> P(v0, v0)",
            "q(x, y) :- P(x, y)",
        ),
        Entry(
            "component_split",
            "P(x, y) -> EXISTS z . P'(x, z)\nP(x, y) -> EXISTS u . P'(u, y)",
            "P'(x, y) -> P(x, y)",
            (("P", 2),), (("P'", 2),), False, False,
        ),
        Entry(
            "diagonal",
            "P(x) -> Q(x, x)",
            "Q(x, x) -> P(x)",
            (("P", 1),), (("Q", 2),), None, True,
            "Q(v0, v0) -> P(v0)",
            "q(x) :- P(x)",
        ),
        Entry(
            "projection",
            "P(x, y) -> Q(x)",
            "Q(x) -> EXISTS y . P(x, y)",
            (("P", 2),), (("Q", 1),), False, False,
            "Q(v0) -> EXISTS w0 . P(v0, w0)",
            "q(x) :- P(x, y)",
        ),
        Entry(
            "hr_split",
            "Emp(name, dept, mgr) -> Works(name, dept) & Boss(dept, mgr)",
            "Works(name, dept) -> EXISTS mgr . Emp(name, dept, mgr)\n"
            "Boss(dept, mgr) -> EXISTS name . Emp(name, dept, mgr)",
            (("Emp", 3),), (("Works", 2), ("Boss", 2)), False, False,
            "Boss(v0, v1) & v0 != v1 -> EXISTS w0 . Emp(w0, v0, v1)\n"
            "Boss(v0, v0) -> EXISTS w0 . Emp(w0, v0, v0)\n"
            "Works(v0, v1) & v0 != v1 -> EXISTS w0 . Emp(v0, v1, w0)\n"
            "Works(v0, v0) -> EXISTS w0 . Emp(v0, v0, w0)",
            "q(n, m) :- Emp(n, d, m)",
        ),
        Entry(
            "publication_norm",
            "Pub(id, title, year) -> Title(id, title) & Year(id, year)",
            "Title(id, title) -> EXISTS year . Pub(id, title, year)\n"
            "Year(id, year) -> EXISTS title . Pub(id, title, year)",
            (("Pub", 3),), (("Title", 2), ("Year", 2)), False, False,
            "Title(v0, v1) & v0 != v1 -> EXISTS w0 . Pub(v0, v1, w0)\n"
            "Title(v0, v0) -> EXISTS w0 . Pub(v0, v0, w0)\n"
            "Year(v0, v1) & v0 != v1 -> EXISTS w0 . Pub(v0, w0, v1)\n"
            "Year(v0, v0) -> EXISTS w0 . Pub(v0, w0, v0)",
            "q(i, y) :- Pub(i, t, y)",
        ),
        Entry(
            "tagged_union",
            "Customer(x) -> IsCust(x) & Party(x)\n"
            "Supplier(x) -> IsSupp(x) & Party(x)",
            "IsCust(x) -> Customer(x)\nIsSupp(x) -> Supplier(x)",
            (("Customer", 1), ("Supplier", 1)),
            (("IsCust", 1), ("IsSupp", 1), ("Party", 1)), True, True,
            "IsCust(v0) -> Customer(v0)\nIsSupp(v0) -> Supplier(v0)\n"
            "Party(v0) -> Customer(v0) | Supplier(v0)",
            "q(x) :- Customer(x)",
        ),
        Entry(
            "audit_projection",
            "Log(user, action, time) -> Acted(user, action)",
            "Acted(user, action) -> EXISTS time . Log(user, action, time)",
            (("Log", 3),), (("Acted", 2),), False, False,
            "Acted(v0, v1) & v0 != v1 -> EXISTS w0 . Log(v0, v1, w0)\n"
            "Acted(v0, v0) -> EXISTS w0 . Log(v0, v0, w0)",
            "q(u, a) :- Log(u, a, t)",
        ),
        Entry(
            "column_swap",
            "Edge(x, y) -> REdge(y, x)",
            "REdge(y, x) -> Edge(x, y)",
            (("Edge", 2),), (("REdge", 2),), True, True,
            "REdge(v0, v1) & v0 != v1 -> Edge(v1, v0)\n"
            "REdge(v0, v0) -> Edge(v0, v0)",
            "q(x, y) :- Edge(x, y)",
        ),
    )
}

#: ``path_closure_mapping()`` as text: recursive, one new path per round.
CLOSURE = "E(x, y) -> P(x, y)\nP(x, y) & E(y, z) -> P(x, z)"

#: Catalogue entries whose forward mapping is full (they have a recovery).
FULL = tuple(name for name, e in CATALOGUE.items() if e.recovery is not None)

#: Reverse mappings with disjunctions, run on ground targets.
DISJUNCTIVE_REVERSE = ("union", "self_join_target")


def guarded(mapping_text: str) -> bool:
    """Does a mapping use ``!=`` or ``Constant`` guards?"""
    return "!=" in mapping_text or "Constant(" in mapping_text
