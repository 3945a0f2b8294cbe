"""Property-based tests: the homomorphism relation and cores.

The relation → is the extended identity mapping e(Id); these invariants
(preorder laws, ground behaviour, interaction with substitution and
cores) are load-bearing for every extended notion in the paper.
"""

from hypothesis import given, settings

from repro.homs.core import core, is_core, retraction_to_core
from repro.homs.search import (
    find_homomorphism,
    is_hom_equivalent,
    is_homomorphic,
    verify_homomorphism,
)
from repro.instance import Instance
from repro.terms import Const

from .strategies import instances, nonempty_instances


@given(instances())
def test_hom_reflexive(inst):
    assert is_homomorphic(inst, inst)


@given(instances(max_size=3), instances(max_size=3), instances(max_size=3))
@settings(max_examples=60, deadline=None)
def test_hom_transitive(a, b, c):
    if is_homomorphic(a, b) and is_homomorphic(b, c):
        assert is_homomorphic(a, c)


@given(instances(allow_nulls=False), instances(allow_nulls=False))
def test_ground_hom_is_subset(a, b):
    assert is_homomorphic(a, b) == (a <= b)


@given(instances())
def test_empty_instance_is_bottom(inst):
    assert is_homomorphic(Instance(), inst)


@given(nonempty_instances())
def test_nonempty_never_maps_to_empty(inst):
    assert not is_homomorphic(inst, Instance())


@given(instances(), instances())
@settings(max_examples=80, deadline=None)
def test_found_homomorphisms_verify(a, b):
    h = find_homomorphism(a, b)
    if h is not None:
        assert verify_homomorphism(h, a, b)
        # Constants never remapped.
        assert all(not isinstance(k, Const) for k in h)


@given(instances())
def test_subset_implies_hom(inst):
    smaller = Instance(list(inst.facts)[: max(0, len(inst) - 1)])
    assert is_homomorphic(smaller, inst)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_substitution_image_is_hom_target(inst):
    """Any null substitution yields a homomorphic image."""
    nulls = sorted(inst.nulls)
    if not nulls:
        return
    collapse = {n: Const("a") for n in nulls}
    image = inst.substitute(collapse)
    assert is_homomorphic(inst, image)


@given(instances(max_size=4))
@settings(max_examples=40, deadline=None)
def test_core_is_hom_equivalent_and_minimal(inst):
    c = core(inst)
    assert is_hom_equivalent(inst, c)
    assert is_core(c)
    assert len(c) <= len(inst)


@given(instances(max_size=4))
@settings(max_examples=40, deadline=None)
def test_core_idempotent(inst):
    c = core(inst)
    assert core(c) == c


@given(instances(max_size=4))
@settings(max_examples=40, deadline=None)
def test_retraction_image_is_the_core(inst):
    """The composed retraction lands exactly on core(I), not just up to →."""
    assert inst.substitute(retraction_to_core(inst)) == core(inst)


@given(instances(allow_nulls=False, max_size=4))
def test_ground_core_identity(inst):
    assert core(inst) == inst
