"""Seeded inputs of the workloads (standard library only).

Every workload is a *deck* of base inputs built from ``--seed``.  An
operation runs one base under a fresh *tag*: the tag is written into
every constant (``c<tag>x00042``), so each operation's input is unique
to the program's content-addressed caches while its work is identical
to the base's.  Renaming keeps the constants' relative order, so the
program's deterministic null naming is unchanged and a result can be
checked against its base's reference by un-tagging it (``untag``).

A base's facts are ``(relation, values)`` pairs; a value is an ``int``
(a constant, rendered with the tag) or a ``str`` (a labelled null such
as ``"G3"``).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from catalogue import CATALOGUE, CLOSURE, DISJUNCTIVE_REVERSE, FULL, guarded

Fact = Tuple[str, tuple]

#: Serve request mix of new requests (op -> share), per the workload spec.
SERVE_MIX = (("chase", 0.60), ("reverse", 0.15), ("answer", 0.15), ("audit", 0.10))
#: Serve requests per second of ``--seconds``: the serve stream is fixed
#: work.  From about 22 seconds on it holds enough distinct requests to
#: overflow the server's 256-entry response LRU; over two persistent
#: connections it takes about ``--seconds`` on a 2-core x86 box.
SERVE_RATE = 25
#: Reverse-side inputs: null counts and constants of forward-chased
#: targets, and sizes of ground disjunctive targets.
REVERSE_NULLS = (1, 2, 3)
REVERSE_CONSTANTS = 3
GROUND_SIZES = (4, 5, 6)
#: Variants per reverse-side slot.  A seed picks one variant per slot, so
#: every reverse and answer input comes from a fixed pool whose
#: references are committed (``oracle.py``, ``references.json``).
POOL = 16


@dataclass
class Base:
    """One base input and how to run it."""

    id: int
    op: str  # exchange | reverse | answer | chase | audit
    scenario: str  # catalogue name, or "closure"
    mapping: str  # the mapping text the op is called with
    facts: List[Fact] = field(default_factory=list)
    query: Optional[str] = None
    forward: Optional[str] = None  # answer ops: the forward mapping
    #: The paper-level properties later claims cite (facts, nulls, worlds...).
    props: Dict[str, object] = field(default_factory=dict)


@dataclass
class Deck:
    """A workload's bases and the order operations run them in."""

    workload: str
    seed: int
    bases: List[Base]
    #: One pass of the closed loop: base ids (in-process workloads).
    order: List[int] = field(default_factory=list)
    #: The serve request stream: (base id, tag) per request.
    stream: List[Tuple[int, int]] = field(default_factory=list)

    def digest(self) -> str:
        """SHA-256 of everything the program will be given."""
        payload = json.dumps(
            [asdict(b) for b in self.bases] + [self.order, self.stream],
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def pass_order(self, index: int) -> List[int]:
        """The base ids of loop pass *index* (a seeded shuffle)."""
        order = list(self.order)
        random.Random(f"{self.seed}/pass/{index}").shuffle(order)
        return order


# -- rendering ------------------------------------------------------------


def prefix(tag: Optional[int]) -> str:
    """The constant prefix of *tag* (``None``: the reference form)."""
    return "cx" if tag is None else f"c{tag}x"


def render_value(value, tag: Optional[int]) -> str:
    return f"{prefix(tag)}{value:05d}" if isinstance(value, int) else value


def render_facts(facts: List[Fact], tag: Optional[int]) -> str:
    """Instance text in the program's input syntax."""
    return ", ".join(
        f"{rel}({', '.join(render_value(v, tag) for v in values)})"
        for rel, values in facts
    )


def untag(text: str, tag: int) -> str:
    """Map an output rendered under *tag* back to the reference form."""
    return text.replace(prefix(tag), prefix(None))


def tag_relations(mapping: str, tag: int) -> str:
    """Rename every relation of a mapping (audit keys are mapping digests)."""
    return re.sub(r"\b([A-Z][A-Za-z0-9_']*)\s*\(", rf"A{tag}_\1(", mapping)


# -- a tiny evaluator for single-premise full tgds --------------------------

_ATOM = re.compile(r"([A-Za-z_][A-Za-z0-9_']*)\(([^()]*)\)")


def _atoms(text: str) -> List[Tuple[str, List[str]]]:
    return [
        (rel, [t.strip() for t in args.split(",")])
        for rel, args in _ATOM.findall(text)
    ]


def _rules(mapping: str):
    rules = []
    for line in mapping.splitlines():
        premise_text, conclusion_text = line.split("->")
        [(relation, variables)] = _atoms(premise_text)
        rules.append((relation, variables, _atoms(conclusion_text)))
    return rules


def full_image(rules, facts: List[Fact]) -> List[Fact]:
    """The forward chase of a single-premise full-tgd mapping (``_rules``).

    Used only to steer generation (target nulls and constants); the
    references come from the program's own naive chase.
    """
    out = set()
    for prel, pvars, conclusions in rules:
        for rel, values in facts:
            if rel != prel:
                continue
            binding: Dict[str, object] = {}
            if any(binding.setdefault(v, x) != x for v, x in zip(pvars, values)):
                continue
            for crel, cvars in conclusions:
                out.add((crel, tuple(binding[v] for v in cvars)))
    return _sorted(out)


def _sorted(facts) -> List[Fact]:
    return sorted(facts, key=lambda f: (f[0], [str(v) for v in f[1]]))


def _counts(facts: List[Fact]) -> Tuple[int, int]:
    values = {v for _, vs in facts for v in vs}
    nulls = sum(1 for v in values if isinstance(v, str))
    return nulls, len(values) - nulls


def worlds(nulls: int, constants: int) -> int:
    """Quotient worlds of a target: sum_k S(nulls, k) * (constants + 1)^k."""
    stirling = [[0] * (nulls + 1) for _ in range(nulls + 1)]
    stirling[0][0] = 1
    for n in range(1, nulls + 1):
        for k in range(1, n + 1):
            stirling[n][k] = k * stirling[n - 1][k] + stirling[n - 1][k - 1]
    return sum(stirling[nulls][k] * (constants + 1) ** k for k in range(nulls + 1))


# -- generators -----------------------------------------------------------


def bulk_source(
    schema, size: int, rng: random.Random, null_ratio: float = 0.1
) -> List[Fact]:
    """*size* distinct facts; 10% of positions are (shared) nulls."""
    null_pool = max(2, size // 8)
    facts = set()
    while len(facts) < size:
        rel, arity = rng.choice(schema)
        facts.add(
            (
                rel,
                tuple(
                    f"G{rng.randrange(null_pool)}"
                    if rng.random() < null_ratio
                    else rng.randrange(size)
                    for _ in range(arity)
                ),
            )
        )
    return sorted(facts, key=lambda f: (f[0], [str(v) for v in f[1]]))


def chain(length: int) -> List[Fact]:
    return [("E", (i, i + 1)) for i in range(length)]


def small_source(
    name: str, nulls: int, constants: int, rng: random.Random
) -> Tuple[List[Fact], List[Fact]]:
    """A small source whose forward image has exactly *nulls* nulls and
    *constants* constants; returns ``(source, target)``.

    The source has the fewest facts that can hold those values, so only
    contents vary with the seed: one value per fact reaches the target
    when each fact's image has one distinct value, two otherwise.
    """
    entry = CATALOGUE[name]
    rules = _rules(entry.forward)
    width = max(len({v for _, vs in conclusions for v in vs})
                for _, _, conclusions in rules)
    count = nulls + constants if width == 1 else nulls + 1
    for _ in range(100000):
        facts = {
            (
                rel,
                tuple(
                    f"G{rng.randrange(nulls)}"
                    if rng.random() < 0.35
                    else rng.randrange(constants + 1)
                    for _ in range(arity)
                ),
            )
            for rel, arity in (rng.choice(entry.source) for _ in range(count))
        }
        if len(facts) != count:
            continue
        source = _sorted(facts)
        target = full_image(rules, source)
        if _counts(target) == (nulls, constants):
            return source, target
    raise RuntimeError(f"cannot draw a {nulls}-null source for {name}")


def ground_target(name: str, size: int, rng: random.Random) -> List[Fact]:
    """Ground facts over a disjunctive reverse mapping's premise schema."""
    entry = CATALOGUE[name]
    facts = set()
    while len(facts) < size:
        rel, arity = rng.choice(entry.target)
        first = rng.randrange(size + 2)
        values = [first] + [
            first if rng.random() < 0.5 else rng.randrange(size + 2)
            for _ in range(arity - 1)
        ]
        facts.add((rel, tuple(values)))
    return sorted(facts, key=lambda f: (f[0], [str(v) for v in f[1]]))


def dealt_sizes(mappings: int, per_mapping: int, low: int, high: int) -> List[List[int]]:
    """Fixed sizes: the midpoints of equal-width strata of [low, high],
    dealt back and forth so that every mapping gets a similar total.
    The seed changes contents only, which keeps runs of different seeds
    comparable."""
    count = mappings * per_mapping
    strata = [int(low + (high - low) * (i + 0.5) / count) for i in range(count)]
    dealt: List[List[int]] = [[] for _ in range(mappings)]
    for row in range(per_mapping):
        for column in range(mappings):
            mapping = column if row % 2 == 0 else mappings - 1 - column
            dealt[mapping].append(strata[row * mappings + column])
    return dealt


def _props(facts: List[Fact], mapping: str, **extra) -> Dict[str, object]:
    nulls, constants = _counts(facts)
    props: Dict[str, object] = {
        "facts": len(facts),
        "nulls": nulls,
        "constants": constants,
        "guarded": guarded(mapping),
    }
    props.update(extra)
    return props


def _bulk_bases(
    rng: random.Random, op: str, per_mapping: int, low: int, high: int
) -> List[Base]:
    bases = []
    names = list(CATALOGUE)
    for name, sizes in zip(names, dealt_sizes(len(names), per_mapping, low, high)):
        entry = CATALOGUE[name]
        for size in sizes:
            facts = bulk_source(entry.source, size, rng)
            bases.append(Base(0, op, name, entry.forward, facts,
                              props=_props(facts, entry.forward)))
    return bases


def _closure_base(length: int) -> Base:
    facts = chain(length)
    return Base(0, "exchange", "closure", CLOSURE, facts,
                props=_props(facts, CLOSURE, rounds=length + 1))


def _numbered(bases: List[Base]) -> List[Base]:
    for index, base in enumerate(bases):
        base.id = index
    return bases


def exchange_sql_deck(seed: int) -> Deck:
    """Catalogue forward mappings on 2k-6k facts, plus the 48-node closure
    (49 rounds).  The closure is 60% of the operations, so the median
    reads the per-round cost and the 90th percentile the bulk cost."""
    rng = random.Random(f"exchange-sql/{seed}")
    bases = _numbered(_bulk_bases(rng, "exchange", 1, 2000, 6000) + [_closure_base(48)])
    order = [b.id for b in bases[:-1]] + [bases[-1].id] * 21
    return Deck("exchange-sql", seed, bases, order=order)


def _reverse_slot(name: str, nulls: int, constants: int, variant: int) -> List[Base]:
    """Pool variant *variant* of a full-tgd scenario at *nulls* nulls: a
    ``reverse`` op on the forward-chased target and an ``answer`` op on
    its source."""
    entry = CATALOGUE[name]
    rng = random.Random(f"pool/{name}/{nulls}/{constants}/{variant}")
    source, target = small_source(name, nulls, constants, rng)
    w = worlds(nulls, constants)
    return [
        Base(0, "reverse", name, entry.recovery, target,
             props=_props(target, entry.recovery, worlds=w)),
        Base(0, "answer", name, entry.recovery, source,
             query=entry.query, forward=entry.forward,
             props=_props(source, entry.recovery, worlds=w)),
    ]


def _ground_slot(name: str, size: int, variant: int) -> Base:
    """Pool variant *variant* of a ground target of a disjunctive reverse
    mapping (one world)."""
    reverse = CATALOGUE[name].reverse
    facts = ground_target(name, size, random.Random(f"pool/{name}/ground/{size}/{variant}"))
    return Base(0, "reverse", name, reverse, facts, props=_props(facts, reverse, worlds=1))


def _reverse_bases(rng: random.Random, null_levels, constants: int) -> List[Base]:
    """Per full-tgd scenario and null count, one seeded pick from the pool."""
    bases: List[Base] = []
    for position, name in enumerate(FULL):
        for nulls in null_levels(position):
            for variant in rng.sample(range(POOL), 1):
                bases += _reverse_slot(name, nulls, constants, variant)
    return bases


def _ground_bases(rng: random.Random, sizes) -> List[Base]:
    """Per disjunctive reverse mapping and size, one seeded pick from the pool."""
    return [
        _ground_slot(name, size, variant)
        for name in DISJUNCTIVE_REVERSE
        for size in sizes
        for variant in rng.sample(range(POOL), 1)
    ]


def reverse_pool() -> List[Base]:
    """Every base a ``reverse`` or ``serve`` deck can draw for its
    reverse and answer operations (their references are committed)."""
    bases: List[Base] = []
    for variant in range(POOL):
        for name in FULL:
            for nulls in REVERSE_NULLS:
                bases += _reverse_slot(name, nulls, REVERSE_CONSTANTS, variant)
        for name in DISJUNCTIVE_REVERSE:
            for size in GROUND_SIZES:
                bases.append(_ground_slot(name, size, variant))
    return bases


def serve_deck(seed: int, seconds: int) -> Deck:
    """A chase/reverse/answer/audit request stream for ``repro serve``.

    Half the requests repeat an earlier one.  A repeat reaches back 4 to
    100 distinct requests (memory-tier hits), or for 30% of repeats, once
    270 distinct requests exist, 260 or more (past the 256-entry
    response LRU: disk-tier hits).
    """
    rng = random.Random(f"serve/{seed}")
    bases = _bulk_bases(rng, "chase", 3, 5, 300)
    for base in _reverse_bases(rng, lambda p: (1 + p % 2,), REVERSE_CONSTANTS):
        if base.op == "answer":
            base.mapping = base.forward
        bases.append(base)
    bases += _ground_bases(rng, GROUND_SIZES[:1])
    for name, entry in CATALOGUE.items():
        bases.append(Base(0, "audit", name, entry.forward,
                          props={"guarded": False}))
    bases = _numbered(bases)
    by_op: Dict[str, List[int]] = {}
    for base in bases:
        by_op.setdefault(base.op, []).append(base.id)

    # The stream is dealt in blocks of 40 requests: 20 repeats and 20 new
    # requests in the SERVE_MIX proportions, each op cycling through its
    # bases in a seeded order, so seeds differ in contents, not in mix.
    cycles = {op: [] for op in by_op}

    def next_base(op: str) -> int:
        if not cycles[op]:
            cycles[op] = rng.sample(by_op[op], len(by_op[op]))
        return cycles[op].pop()

    block_ops = [op for op, share in SERVE_MIX for _ in range(round(20 * share))]
    stream: List[Tuple[int, int]] = []
    distinct: List[Tuple[int, int]] = []
    while len(stream) < SERVE_RATE * seconds:
        if len(stream) < 8:
            slots = ["chase"] * 8
        else:
            new = rng.sample(block_ops, len(block_ops))
            repeats = [None] * 14 + ["far"] * 6
            slots = rng.sample(new + repeats, 40)
        for slot in slots:
            index = len(stream)
            if slot == "far" and len(distinct) >= 270:
                stream.append(distinct[-rng.randint(260, len(distinct))])
            elif slot in (None, "far"):
                stream.append(distinct[-rng.randint(4, min(100, len(distinct)))])
            else:
                request = (next_base(slot), index)
                distinct.append(request)
                stream.append(request)
    del stream[SERVE_RATE * seconds:]
    return Deck("serve", seed, bases, stream=stream)


def describe(deck: Deck) -> Dict[str, object]:
    """The input shares later claims cite, over one pass of the deck (or
    the whole serve stream): facts, nulls and worlds per operation, the
    operation mix, the share of reverse-side operations whose mapping
    has guards, and for ``serve`` the share of repeated requests."""
    bases = {b.id: b for b in deck.bases}
    if deck.workload == "serve":
        ops = [bases[base_id] for base_id, _ in deck.stream]
    else:
        ops = [bases[base_id] for base_id in deck.order]

    def spread(key: str) -> Dict[str, float]:
        values = sorted(b.props[key] for b in ops if key in b.props)
        return {"min": values[0], "median": values[len(values) // 2], "max": values[-1]}

    def share(items, predicate) -> float:
        items = list(items)
        return round(sum(1 for i in items if predicate(i)) / len(items), 3)

    out: Dict[str, object] = {"ops": len(ops), "facts": spread("facts"),
                              "nulls": spread("nulls")}
    if any("worlds" in b.props for b in ops):
        out["worlds"] = spread("worlds")
    out["mix"] = {op: share(ops, lambda b, op=op: b.op == op)
                  for op in sorted({b.op for b in ops})}
    reverse_side = [b for b in ops if b.op in ("reverse", "answer")]
    if reverse_side:
        out["guarded_share"] = share(reverse_side, lambda b: b.props["guarded"])
        out["guard_free_share"] = round(1 - out["guarded_share"], 3)
    if deck.workload == "serve":
        first: Dict[Tuple[int, int], int] = {}
        backs = []
        for base_id, tag in deck.stream:
            key = (base_id, tag)
            if key in first:
                backs.append(len(first) - first[key])
            else:
                first[key] = len(first)
        out["repeat_share"] = round(len(backs) / len(deck.stream), 3)
        out["repeat_within_100_distinct"] = share(backs, lambda d: d <= 100)
        out["repeat_past_256_distinct"] = share(backs, lambda d: d > 256)
    return out


def build(workload: str, seed: int, seconds: int) -> Deck:
    if workload == "exchange-sql":
        return exchange_sql_deck(seed)
    if workload == "serve":
        return serve_deck(seed, seconds)
    raise ValueError(f"unknown workload {workload!r}")
