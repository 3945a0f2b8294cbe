"""Scale smoke tests: the index-backed paths at moderately large sizes.

Guards against quadratic regressions in the chase and homomorphism
engine; sizes are chosen so the suite stays fast (< a few seconds each)
while being 10-50× the unit-test sizes.
"""

import time

import pytest

from repro.homs.search import is_homomorphic
from repro.instance import Instance
from repro.mappings.schema_mapping import SchemaMapping
from repro.schema import Schema
from repro.workloads.generators import random_instance


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


class TestChaseScale:
    def test_chase_2000_facts(self):
        mapping = SchemaMapping.from_text(
            "P(x, y, z) -> Q(x, y) & R(y, z)\nP(x, y, z) -> S(x)"
        )
        source = random_instance(mapping.source, 2000, seed=1, value_pool=3000)
        result, elapsed = timed(mapping.exchange, source)
        assert len(result.generated) >= 2000
        assert elapsed < 30, f"chase took {elapsed:.1f}s"

    def test_chase_with_heavy_joins(self):
        # path2 on a dense small-domain graph: many overlapping triggers.
        mapping = SchemaMapping.from_text("P(x, y) -> EXISTS z . Q(x, z) & Q(z, y)")
        source = random_instance(mapping.source, 500, seed=2, value_pool=40)
        result, elapsed = timed(mapping.exchange, source)
        assert result.steps > 0
        assert elapsed < 30, f"chase took {elapsed:.1f}s"


class TestHomomorphismScale:
    def test_ground_check_1000_facts(self):
        schema = Schema([("P", 2), ("Q", 2)])
        small = random_instance(schema, 500, seed=3, value_pool=100)
        big = small.union(random_instance(schema, 1000, seed=4, value_pool=100))
        found, elapsed = timed(is_homomorphic, small, big)
        assert found  # subset by construction
        assert elapsed < 10, f"hom check took {elapsed:.1f}s"

    def test_null_rich_check_bounded(self):
        schema = Schema([("P", 2)])
        source = random_instance(
            schema, 150, seed=5, null_ratio=0.4, value_pool=30
        )
        target = random_instance(schema, 300, seed=6, value_pool=30)
        _, elapsed = timed(is_homomorphic, source, target)
        assert elapsed < 10, f"hom check took {elapsed:.1f}s"


class TestRoundTripScale:
    def test_lossless_round_trip_500_facts(self):
        from repro.reverse.exchange import round_trip

        mapping = SchemaMapping.from_text("P(x, y) -> P'(y, x)")
        reverse = SchemaMapping.from_text("P'(y, x) -> P(x, y)")
        source = random_instance(mapping.source, 500, seed=7, value_pool=900)
        result, elapsed = timed(
            round_trip, mapping, reverse, source, take_core=False
        )
        assert result.unique == source
        assert elapsed < 10, f"round trip took {elapsed:.1f}s"
