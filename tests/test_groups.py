import tracemalloc
from random import Random

import pytest

from gpdrift.groups import CyclicGroup, IntegerGroup, groups_from_spec, uniform_groups

from oracles import S3


@pytest.mark.parametrize("group", [IntegerGroup(), CyclicGroup(2), CyclicGroup(7), S3])
def test_group_axioms_spot_checked(group):
    rng = Random(5)
    for _ in range(500):
        x = group.sample_nontrivial(rng)
        y = group.sample_nontrivial(rng)
        z = group.sample_nontrivial(rng)
        assert group.multiply(group.multiply(x, y), z) == group.multiply(
            x, group.multiply(y, z)
        )
        assert group.is_identity(group.multiply(x, group.invert(x)))
        assert group.is_identity(group.multiply(group.invert(x), x))
        assert not group.is_identity(x)


def test_cyclic_modulus_validation():
    with pytest.raises(ValueError):
        CyclicGroup(1)


def test_from_int():
    assert IntegerGroup().from_int(-3) == -3
    assert CyclicGroup(5).from_int(7) == 2
    assert CyclicGroup(5).is_identity(CyclicGroup(5).from_int(10))


def test_uniform_groups():
    gs = uniform_groups(4)
    assert len(gs) == 4 and all(isinstance(g, IntegerGroup) for g in gs)


def test_groups_from_spec():
    gs = groups_from_spec("z", 3)
    assert all(isinstance(g, IntegerGroup) for g in gs)
    gs = groups_from_spec("zmod:6", 2)
    assert all(g.modulus == 6 for g in gs)
    gs = groups_from_spec("z,zmod:3,z", 3)
    assert isinstance(gs[1], CyclicGroup)
    with pytest.raises(ValueError):
        groups_from_spec("z,z", 3)
    with pytest.raises(ValueError):
        groups_from_spec("weird", 1)
    with pytest.raises(ValueError):
        groups_from_spec("zmod:x", 1)
    # the first bad entry in list order is the one reported
    with pytest.raises(ValueError, match="^bad modulus in group spec 'zmod:1'$"):
        groups_from_spec("z,zmod:1,weird,zmod:1", 4)
    with pytest.raises(ValueError, match="^unknown group spec 'weird'"):
        groups_from_spec("z,weird,zmod:1", 3)


def test_equal_entries_share_one_group_object():
    gs = groups_from_spec("z, zmod:3,zmod:2,z,zmod:3 ", 5)
    assert [type(g) for g in gs] == [IntegerGroup, CyclicGroup, CyclicGroup, IntegerGroup, CyclicGroup]
    assert gs[0] is gs[3] and gs[1] is gs[4] and gs[1] is not gs[2]
    assert [g.modulus for g in gs[1:3]] == [3, 2]


def test_one_entry_spec_builds_one_group_object():
    # the tuple of references is all that grows with the vertex count:
    # one group object per vertex took 96 bytes a vertex
    count = 100_000
    tracemalloc.start()
    try:
        gs = groups_from_spec("zmod:3", count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(gs) == count and all(g is gs[0] for g in gs)
    assert peak < 24 * count, peak
