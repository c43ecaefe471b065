"""Coproduct structure of the two de Bruijn scope systems, and the renaming table.

Sums of renamings are checked on the oracle tables of ``naive``: the kernel
renames under binders by substitution and builds no such table.
"""

import pytest
from hypothesis import given, strategies as st

from gtt.errors import IndexOutOfRange, ScopeMismatch
from gtt.scopes import (
    Renaming,
    ScopeKind,
    inl_renaming,
)
from naive import identity_renaming, inr_renaming, naive_extend_renaming, naive_sum_renaming

KINDS = [ScopeKind.INDICES, ScopeKind.LEVELS]
scopes = st.integers(min_value=0, max_value=5)


def test_indices_inclusions_match_walkthrough():
    kind = ScopeKind.INDICES
    assert kind.inl(3, 2, 0) == 2
    assert kind.inr(3, 2, 0) == 0


def test_levels_inclusions():
    kind = ScopeKind.LEVELS
    assert kind.inl(3, 2, 0) == 0
    assert kind.inr(3, 2, 0) == 3


@pytest.mark.parametrize("kind", KINDS)
def test_inclusions_and_their_inverse_refuse_a_position_outside_their_scope(kind):
    # the sum 3 + 2: inl takes the 3 positions of the left, inr the 2 of the
    # right, and unsum the 5 of the sum
    for method, bad, scope in ((kind.inl, (-1, 3), 3), (kind.inr, (-1, 2), 2), (kind.unsum, (-1, 5), 5)):
        for p in bad:
            with pytest.raises(IndexOutOfRange, match=f"^position {p} of scope {scope}$"):
                method(3, 2, p)


@pytest.mark.parametrize("kind", KINDS)
def test_sum_with_empty_is_identity(kind):
    for n in range(5):
        inl = inl_renaming(kind, n, 0)
        inr = inr_renaming(kind, 0, n)
        assert inl == identity_renaming(n)
        assert inr == identity_renaming(n)


def test_renaming_table_validation():
    # one image per position of src, each a position of dst
    with pytest.raises(ScopeMismatch, match="table of length 1 for scope 2"):
        Renaming(2, 3, (0,))
    with pytest.raises(IndexOutOfRange, match="image 3 outside scope 3"):
        Renaming(2, 3, (0, 3))
    with pytest.raises(IndexOutOfRange, match="image -1 outside scope 3"):
        Renaming(1, 3, (-1,))
    r = Renaming(2, 3, (2, 0))
    assert (r(0), r(1)) == (2, 0)
    for i in (-1, 2):
        with pytest.raises(IndexOutOfRange, match=f"position {i} of scope 2"):
            r(i)


@given(st.sampled_from(KINDS), scopes, scopes)
def test_coproduct_covers_positions_exactly_once(kind, g, d):
    seen = {}
    for i in range(g):
        seen.setdefault(kind.inl(g, d, i), []).append(("left", i))
    for j in range(d):
        seen.setdefault(kind.inr(g, d, j), []).append(("right", j))
    assert sorted(seen) == list(range(g + d))
    assert all(len(v) == 1 for v in seen.values())
    for p in range(g + d):
        assert kind.unsum(g, d, p) == seen[p][0]


def random_renaming(data, src, dst):
    if src > 0 and dst == 0:
        dst = 1
    table = tuple(data.draw(st.integers(0, dst - 1)) for _ in range(src)) if src else ()
    return Renaming(src, dst, table)


@given(st.sampled_from(KINDS), st.data(), scopes, scopes, scopes, scopes)
def test_sum_renaming_commutes_with_inclusions(kind, data, s1, d1, s2, d2):
    r = random_renaming(data, s1, d1)
    rp = random_renaming(data, s2, d2)
    s = naive_sum_renaming(kind, r, rp)
    for i in range(r.src):
        assert s(kind.inl(r.src, rp.src, i)) == kind.inl(r.dst, rp.dst, r(i))
    for j in range(rp.src):
        assert s(kind.inr(r.src, rp.src, j)) == kind.inr(r.dst, rp.dst, rp(j))


@pytest.mark.parametrize("kind", KINDS)
def test_sum_of_identities_is_identity(kind):
    for g in range(4):
        for d in range(4):
            s = naive_sum_renaming(kind, identity_renaming(g), identity_renaming(d))
            assert s == identity_renaming(g + d)


def test_swap_sum_identity_indices():
    kind = ScopeKind.INDICES
    swap = Renaming(2, 2, (1, 0))
    s = naive_sum_renaming(kind, swap, identity_renaming(1))
    # positions: 0 is the bound variable, 1 and 2 are the swapped outer ones
    assert s.table == (0, 2, 1)


@pytest.mark.parametrize("kind", KINDS)
def test_sum_with_empty_renaming_is_same_table(kind):
    r = Renaming(3, 4, (2, 0, 1))
    assert naive_sum_renaming(kind, r, identity_renaming(0)).table == r.table
    assert naive_extend_renaming(kind, r, 0).table == r.table


@pytest.mark.parametrize("kind", KINDS)
def test_strict_associativity_of_inclusions(kind):
    # positions embed the same way through either association of a triple sum
    for g, d, e in [(1, 2, 3), (2, 0, 2), (3, 1, 1)]:
        for i in range(g):
            left = kind.inl(g + d, e, kind.inl(g, d, i))
            right = kind.inl(g, d + e, i)
            assert left == right
        for j in range(d):
            left = kind.inl(g + d, e, kind.inr(g, d, j))
            right = kind.inr(g, d + e, kind.inl(d, e, j))
            assert left == right
        for k in range(e):
            left = kind.inr(g + d, e, k)
            right = kind.inr(g, d + e, kind.inr(d, e, k))
            assert left == right
