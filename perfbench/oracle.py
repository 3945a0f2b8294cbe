"""Reference outputs from the repository's oracles, and output checking.

References come from the slow-but-simple paths the test suite trusts:

* forward chase: ``evaluation="naive"`` (the tuple kernel; the SQL
  workload uses the naive SQL plan, byte-identical to it by D6),
  computed once per seed before anything is timed;
* reverse: full quotient enumeration (``minimize=False``) with the
  naive disjunctive chase, then ``minimize_branches`` and ``core``;
* certain answers: ``brute_force_certain_answers`` over every branch
  of the full enumeration;
* audit: the catalogue's claims.

Reverse and answer inputs come from a fixed pool (``decks.reverse_pool``),
so their references are not recomputed by the program under test: they
were computed once, at the commit that defined the benchmark, and are
committed in ``references.json``.  ``python3 perfbench/oracle.py
--write`` recomputes that file; run it only when the pool itself changes.

An operation's output is first reduced to a canonical text (see
``canonical_*``) with its tag removed.  It is correct if that text hashes
like its base's reference.  Otherwise the output is compared again up
to renaming of nulls, and a forward result that is homomorphically
equivalent to the reference also counts as correct.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from typing import Dict, List, Optional, Tuple

from catalogue import CATALOGUE
from decks import Base, Deck, render_value, reverse_pool

HERE = os.path.dirname(os.path.abspath(__file__))
COMMITTED = os.path.join(HERE, "references.json")

_FACT = re.compile(r"([A-Za-z_][A-Za-z0-9_']*)\(([^()]*)\)")
_AUDIT = re.compile(r"invertible=(\w+) extended=(\w+)")


def digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


# -- canonical texts (shared by the loop, the serve client and the oracle) --


def canonical_candidates(texts) -> str:
    return "\n".join(sorted(texts))


def canonical_rows(rows) -> str:
    return "\n".join(sorted("(" + ", ".join(str(v) for v in row) + ")" for row in rows))


def canonical_audit(invertible, extended) -> str:
    return f"invertible={invertible} extended={extended}"


# -- references ------------------------------------------------------------


def instance(facts, tag: Optional[int] = None):
    from repro import Const, Fact, Instance, Null

    return Instance(
        Fact(rel, tuple(
            Const(render_value(v, tag)) if isinstance(v, int) else Null(v)
            for v in values
        ))
        for rel, values in facts
    )


def _reverse_candidates(recovery_text: str, target):
    """Full-enumeration reverse chase, minimized and folded to cores."""
    from repro import Instance, SchemaMapping
    from repro.chase.disjunctive import minimize_branches, reverse_disjunctive_chase
    from repro.chase.standard import chase
    from repro.homs.core import core

    recovery = SchemaMapping.from_text(recovery_text)
    names = recovery.target.names
    if recovery.is_disjunctive() or recovery.uses_inequality():
        raw = list(reverse_disjunctive_chase(target, recovery.dependencies,
                                             result_relations=names, minimize=False,
                                             evaluation="naive"))
        kept = minimize_branches(raw) or [Instance()]
    else:
        raw = [chase(target, recovery.dependencies, evaluation="naive")
               .restricted_to(names)]
        kept = raw
    return raw, [core(candidate) for candidate in kept]


def _forward(mapping_text: str, source, sql: bool):
    from repro import SchemaMapping
    from repro.chase.standard import chase

    mapping = SchemaMapping.from_text(mapping_text)
    if sql:
        from repro.store import open_store
        from repro.store.sqlplan import sql_chase

        store = open_store("sqlite")
        store.add_all(source.facts)
        full = sql_chase(store, mapping.dependencies, evaluation="naive").instance
        return full.restrict(mapping.target.names)
    return chase(source, mapping.dependencies, evaluation="naive").restricted_to(
        mapping.target.names
    )


def reference(base: Base, sql: bool = False) -> str:
    """The canonical reference text of *base* (untagged)."""
    if base.op in ("exchange", "chase"):
        return str(_forward(base.mapping, instance(base.facts), sql))
    if base.op == "reverse":
        _, candidates = _reverse_candidates(base.mapping, instance(base.facts))
        return canonical_candidates(str(c) for c in candidates)
    if base.op == "answer":
        from repro import parse_query
        from repro.reverse.query_answering import brute_force_certain_answers

        target = _forward(base.forward, instance(base.facts), sql=False)
        raw, _ = _reverse_candidates(CATALOGUE[base.scenario].recovery, target)
        answers = brute_force_certain_answers(
            parse_query(base.query), lambda _: True, raw
        )
        return canonical_rows(answers)
    if base.op == "audit":
        entry = CATALOGUE[base.scenario]
        return canonical_audit(entry.invertible, entry.extended)
    raise ValueError(base.op)


def pool_key(base: Base) -> str:
    """What a reverse or answer reference depends on."""
    return digest(json.dumps([base.op, base.forward or base.mapping, base.facts, base.query]))


def committed() -> Dict[str, str]:
    with open(COMMITTED) as handle:
        return json.load(handle)["references"]


def references(deck: Deck) -> Dict[int, str]:
    """The deck's references: reverse and answer ones from the committed
    file, the others computed here."""
    sql = deck.workload == "exchange-sql"
    stored = committed()
    out = {}
    for base in deck.bases:
        if base.op in ("reverse", "answer"):
            key = pool_key(base)
            if key not in stored:
                raise RuntimeError(f"no committed reference for base {base.id} ({key})")
            out[base.id] = stored[key]
        else:
            out[base.id] = reference(base, sql)
    return out


def write_committed() -> int:
    """Compute the references of the whole reverse pool into ``references.json``."""
    pool = {pool_key(base): base for base in reverse_pool()}
    payload = {
        "about": "reverse and answer references of decks.reverse_pool(), from "
                 "oracle.reference (full quotient enumeration, naive chase, "
                 "brute-force certain answers)",
        "references": {key: reference(base) for key, base in sorted(pool.items())},
    }
    with open(COMMITTED + ".tmp", "w") as handle:
        json.dump(payload, handle, indent=0, sort_keys=True)
        handle.write("\n")
    os.replace(COMMITTED + ".tmp", COMMITTED)
    print(f"{len(pool)} references written to {COMMITTED}")
    return 0


# -- fallback comparison ------------------------------------------------------


def parse_rendered(text: str) -> Optional[List[Tuple[str, Tuple[str, ...]]]]:
    """Facts of a rendered instance ``{R(a, _N1), ...}``; ``None`` unless
    *text* is exactly that rendering."""
    facts = [
        (rel, tuple(v.strip() for v in args.split(",")) if args.strip() else ())
        for rel, args in _FACT.findall(text)
    ]
    rendered = ", ".join(f"{rel}({', '.join(values)})" for rel, values in facts)
    return facts if text == "{" + rendered + "}" else None


def _relabelled(facts) -> str:
    """Rename nulls in order of first use over the null-blind fact order.

    Equal results prove two instances equal up to renaming of nulls; a
    tie in the null-blind order can make isomorphic instances differ,
    which only sends the comparison on to the exact check.
    """
    def blind(fact):
        rel, values = fact
        return rel, tuple("" if v.startswith("_") else v for v in values)

    names: Dict[str, str] = {}
    out = []
    for rel, values in sorted(facts, key=blind):
        out.append((rel, tuple(
            names.setdefault(v, f"_{len(names)}") if v.startswith("_") else v
            for v in values
        )))
    return repr(sorted(out))


def _to_instance(facts):
    from repro import Const, Fact, Instance, Null

    return Instance(
        Fact(rel, tuple(Null(v[1:]) if v.startswith("_") else Const(v) for v in values))
        for rel, values in facts
    )


def _same_instance(left: str, right: str, hom_ok: bool) -> bool:
    from repro.homs.search import is_hom_equivalent

    lf, rf = parse_rendered(left), parse_rendered(right)
    if lf is None or rf is None:
        return False
    if _relabelled(lf) == _relabelled(rf):
        return True
    if not hom_ok and len(lf) != len(rf):
        return False
    # Cores that are hom-equivalent are isomorphic, so for reverse
    # candidates (cores, equal size) this is the isomorphism check.
    return is_hom_equivalent(_to_instance(lf), _to_instance(rf))


def matches(op: str, output: str, expected: str) -> bool:
    """Is a (untagged) canonical output correct against its reference?"""
    if output == expected:
        return True
    if op in ("exchange", "chase"):
        return _same_instance(output, expected, hom_ok=True)
    if op == "reverse":
        outs, refs = output.split("\n"), expected.split("\n")
        if len(outs) != len(refs):
            return False
        remaining = list(refs)
        for candidate in outs:
            match = next(
                (r for r in remaining if _same_instance(candidate, r, hom_ok=False)),
                None,
            )
            if match is None:
                return False
            remaining.remove(match)
        return True
    if op == "audit":
        # The catalogue makes no claim where it says None.
        got, want = _AUDIT.fullmatch(output), _AUDIT.fullmatch(expected)
        return got is not None and all(
            claim == "None" or claim == value
            for claim, value in zip(want.groups(), got.groups())
        )
    return False


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 perfbench/oracle.py --write")
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.exit(write_committed())
