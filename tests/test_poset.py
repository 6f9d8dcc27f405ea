import random

import pytest
from hypothesis import given, settings, strategies as st

from gampkit.errors import BudgetExceeded
from gampkit.poset import (
    FinitePoset,
    KPosetSpec,
    NormCovering,
    bm_le2,
    finite_comb_search,
    is_kernel,
    is_supported,
    kernel_containing,
    kposet,
    kposet_cover_check,
    poset_ideals,
    sharp_ideals,
)


def square_with_bottom():
    return FinitePoset.square()


class TestFinitePoset:
    def test_validation(self):
        with pytest.raises(ValueError):
            FinitePoset([0, 1], [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            FinitePoset([0, 1, 2], [(0, 1), (1, 2)])  # not transitive

    def test_covers_chain(self):
        p = FinitePoset.chain(3)
        assert p.covers() == [(0, 1), (1, 2)]

    def test_linear_extension(self):
        p = square_with_bottom()
        order = p.linear_extension()
        for i, x in enumerate(order):
            for y in order[i + 1 :]:
                assert not p.lt(y, x)


class TestKernels:
    def test_whole_poset_is_kernel(self):
        p = square_with_bottom()
        assert is_kernel(p, set(p.elements))
        assert kernel_containing(p, set(p.elements)) == frozenset(p.elements)

    def test_two_incomparable_need_bottom(self):
        p = square_with_bottom()
        v = kernel_containing(p, {"l", "r"})
        assert "b" in v
        assert is_kernel(p, v)

    def test_empty_seed(self):
        p = FinitePoset.chain(3)
        v = kernel_containing(p, set())
        assert is_kernel(p, v)
        assert v == frozenset({0})

    def test_supported(self):
        for p in (FinitePoset.chain(4), FinitePoset.antichain(3), square_with_bottom()):
            assert is_supported(p)


class TestSharpIdeals:
    def test_identity_covering(self):
        p = FinitePoset.chain(3)
        nc = NormCovering(p, p, {x: x for x in p.elements})
        out = sharp_ideals(nc)
        # every ideal of a chain is principal, hence sharp
        assert len(out) == len(poset_ideals(p)) == 3
        for ideal, val in out:
            assert val == max(ideal)

    def test_antichain_over_chain(self):
        u = FinitePoset.antichain(2)
        base = FinitePoset.chain(2)
        nc = NormCovering(u, base, {0: 0, 1: 1})
        out = sharp_ideals(nc)
        assert [set(i) for i, _ in out] == [{0}, {1}]

    def test_antichain_image_excluded(self):
        u = square_with_bottom()
        base = FinitePoset.antichain(2)
        big = FinitePoset(["b", "l", "r", "t"], [("b", "l"), ("b", "r"), ("b", "t"), ("l", "t"), ("r", "t")])
        # boundary sending the two middles to distinct incomparable points
        base2 = FinitePoset([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])
        nc = NormCovering(big, base2, {"b": 0, "l": 1, "r": 2, "t": 3})
        out = dict(sharp_ideals(nc))
        assert frozenset({"b", "l", "r", "t"}) in out
        # the downset {b, l, r} is not directed, so it is not an ideal at all
        assert frozenset({"b", "l", "r"}) not in out


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


class TestCombSearch:
    def test_constant_empty(self):
        p = FinitePoset.chain(3)
        f = finite_comb_search(p, 5, 3, lambda s: set())
        assert f is not None and len(set(f.values())) == 3

    def test_singleton(self):
        p = FinitePoset(["*"], [])
        assert finite_comb_search(p, 2, 2, lambda s: set()) is not None

    def test_adversarial(self):
        p = FinitePoset.chain(2)

        def big_f(s):
            # tries to pollute every downset with the other values
            return {v + 1 for v in s if v + 1 < 3}

        found = finite_comb_search(p, 3, 3, big_f)
        if found is not None:
            for q in p.elements:
                for r in p.elements:
                    if p.leq(q, r):
                        fp = frozenset(found[x] for x in p.elements if p.leq(x, q))
                        fq = frozenset(found[x] for x in p.elements if p.leq(x, r))
                        assert big_f(fp) & fq <= fp

    def test_budget(self):
        p = FinitePoset.chain(3)
        with pytest.raises(BudgetExceeded):
            finite_comb_search(p, 30, 30, lambda s: set(), budget=3)

    def test_budget_is_search_exhausted(self):
        from gampkit.errors import SearchExhausted

        with pytest.raises(SearchExhausted) as exc:
            finite_comb_search(FinitePoset.chain(3), 30, 30, lambda s: set(), budget=3)
        assert exc.value.bound == 3


class TestOrderDimension:
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
