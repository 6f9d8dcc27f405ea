import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from gampkit import poset as poset_module
from gampkit.errors import BudgetExceeded
from gampkit.poset import FinitePoset, KPosetSpec, bm_le2, kposet, kposet_cover_check


def square_with_bottom():
    return FinitePoset.square()


class TestFinitePoset:
    def test_validation(self):
        with pytest.raises(ValueError):
            FinitePoset([0, 1], [(0, 1), (1, 0)]).validate()
        with pytest.raises(ValueError):
            FinitePoset([0, 1, 2], [(0, 1), (1, 2)]).validate()  # not transitive

    def test_covers_chain(self):
        p = FinitePoset.chain(3)
        assert p.covers() == [(0, 1), (1, 2)]

    def test_linear_extension(self):
        p = square_with_bottom()
        order = p.linear_extension()
        for i, x in enumerate(order):
            for y in order[i + 1 :]:
                assert not p.lt(y, x)


# random cover relations on at most 6 elements; every pair points up the
# index order, so the relation is acyclic
cover_relations = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])),
    )
)


def transitive_closure(elements, pairs):
    """Reference: Warshall's closure of the reflexive relation."""
    leq = {(x, x) for x in elements} | set(pairs)
    for y in elements:
        for x in elements:
            for z in elements:
                if (x, y) in leq and (y, z) in leq:
                    leq.add((x, z))
    return leq


@settings(max_examples=60, deadline=None)
@given(cover_relations)
def test_from_covers_is_the_transitive_closure(relation):
    n, covers = relation
    assert FinitePoset.from_covers(range(n), covers)._leq == transitive_closure(range(n), covers)


@settings(max_examples=60, deadline=None)
@given(cover_relations)
def test_linear_extensions_are_the_order_respecting_permutations(relation):
    # elements listed against the direction of the covers, so that early
    # positions refuse most of the values tried
    n, covers = relation
    p = FinitePoset.from_covers(reversed(range(n)), covers)
    respecting = [
        perm
        for perm in permutations(p.elements)
        if not any(p.lt(perm[j], perm[i]) for i in range(n) for j in range(i + 1, n))
    ]
    found = [tuple(ext.values()) for ext in poset_module._linear_extensions(p)]
    assert found == respecting
    assert p.linear_extension() == list(respecting[0])


class TestKPoset:
    def spec(self, depth=2):
        base = FinitePoset.chain(2)
        return KPosetSpec(base, (1,), ((1, ("r",)),), depth)

    def test_depth_one_is_base(self):
        poset, tree = kposet(self.spec(depth=1))
        assert len(tree) == 1
        assert len(poset.elements) == 2

    def test_size_law(self):
        poset, tree = kposet(self.spec(depth=3))
        assert len(poset.elements) == len(tree) * 2
        assert len(tree) == 3  # a unary branching chain of depth 3

    def test_cover_characterization(self):
        ok, predicted, brute = kposet_cover_check(self.spec(depth=3))
        assert ok

    def test_finitely_many_covers(self):
        poset, _ = kposet(self.spec(depth=3))
        for a in poset.elements:
            assert len([1 for (u, v) in poset.covers() if u == a]) < len(poset.elements)

    def test_over_budget_refused_before_the_tree(self, monkeypatch):
        # marks 1 and 0 carry 1 and 2 branch labels, so depth 30 gives
        # 3^0 + ... + 3^29 tree nodes: the size law refuses them unbuilt
        spec = KPosetSpec(FinitePoset.chain(2), (1, 0), ((1, ("r",)), (0, ("s", "t"))), 30)

        def spy(spec):
            raise AssertionError("the tree was built")

        monkeypatch.setattr(poset_module, "_tree_nodes", spy)
        with pytest.raises(BudgetExceeded):
            kposet(spec)

    def test_randomized_cover_checks(self):
        rng = random.Random(11)
        for trial in range(8):
            k = rng.randint(2, 3)
            base = FinitePoset.chain(k)
            marks = tuple(sorted(rng.sample(range(k), rng.randint(1, k - 1))))
            branch = tuple((m, tuple(f"r{m}{i}" for i in range(rng.randint(1, 2)))) for m in marks)
            spec = KPosetSpec(base, marks, branch, rng.randint(1, 3))
            poset, tree = kposet(spec, budget=300)
            assert len(poset.elements) == len(tree) * k
            ok, _, _ = kposet_cover_check(spec, budget=300)
            assert ok


class TestBm:
    def test_counts(self):
        assert len(bm_le2(2).elements) == 4
        assert len(bm_le2(3).elements) == 8
        assert len(bm_le2(4).elements) == 12

    def test_order_is_inclusion(self):
        p = bm_le2(3)
        full = frozenset({0, 1, 2})
        for x in p.elements:
            assert p.leq(x, full)


class TestOrderDimension:
    """The main theorem's hypothesis: P is a finite lattice of
    order-dimension d > 0, and a diagram over P with no partial lifting in
    the gamps of W gives a critical point at aleph_{d-1}."""

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_out_of_range(self, k):
        from gampkit.poset import order_dimension_at_most

        with pytest.raises(ValueError, match="1 <= k <= 3"):
            order_dimension_at_most(FinitePoset.square(), k)

    def test_chain_is_one(self):
        from gampkit.poset import order_dimension_at_most

        assert order_dimension_at_most(FinitePoset.chain(4), 1)

    def test_square_is_two(self):
        from gampkit.poset import order_dimension_at_most

        assert not order_dimension_at_most(FinitePoset.square(), 1)
        assert order_dimension_at_most(FinitePoset.square(), 2)

    def test_standard_three_dimensional(self):
        from gampkit.poset import order_dimension_at_most

        els = [frozenset([i]) for i in range(3)]
        els += [frozenset([0, 1]), frozenset([0, 2]), frozenset([1, 2])]
        leq = [(a, b) for a in els for b in els if a <= b]
        s3 = FinitePoset(els, leq)
        assert not order_dimension_at_most(s3, 2)
        assert order_dimension_at_most(s3, 3)
