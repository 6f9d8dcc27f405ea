"""Finite poset combinatorics: the lexicographic tree-over-poset
construction with its cover law, the size-two-subsets poset, and bounded
order dimension."""

from dataclasses import dataclass
from itertools import islice, product

from .errors import BudgetExceeded, TooLarge, cross_check
from .util import assignments, bfs


class FinitePoset:
    """Explicit order relation, validated for the order axioms."""

    def __init__(self, elements, leq_pairs, validate=True):
        self.elements = tuple(elements)
        self._leq = {(x, x) for x in self.elements} | {tuple(p) for p in leq_pairs}
        if validate:
            self.validate()

    def validate(self):
        els = set(self.elements)
        if len(els) != len(self.elements):
            raise ValueError("duplicate elements")
        for (x, y) in self._leq:
            if x not in els or y not in els:
                raise ValueError(f"relation leaves the universe at {(x, y)}")
        for (x, y) in self._leq:
            if (y, x) in self._leq and x != y:
                raise ValueError(f"antisymmetry fails at {(x, y)}")
        for (x, y) in self._leq:
            for z in self.elements:
                if (y, z) in self._leq and (x, z) not in self._leq:
                    raise ValueError(f"transitivity fails at {(x, y, z)}")

    def leq(self, x, y):
        return (x, y) in self._leq

    def lt(self, x, y):
        return x != y and (x, y) in self._leq

    def least(self):
        for x in self.elements:
            if all((x, y) in self._leq for y in self.elements):
                return x
        return None

    def covers(self):
        """Cover pairs (u, v): u < v with nothing strictly between."""
        out = []
        for u in self.elements:
            for v in self.elements:
                if self.lt(u, v) and not any(
                    self.lt(u, w) and self.lt(w, v) for w in self.elements
                ):
                    out.append((u, v))
        return out

    def linear_extension(self):
        """The first linear extension: each position takes the first element
        whose strict lower bounds are all placed."""
        return list(next(_linear_extensions(self)).values())

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return (x, x) in self._leq

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and set(self.elements) == set(other.elements)
            and self._leq == other._leq
        )

    def __repr__(self):
        return f"FinitePoset({len(self.elements)} elements)"

    @classmethod
    def chain(cls, k):
        return cls(range(k), [(i, j) for i in range(k) for j in range(i, k)], validate=False)

    @classmethod
    def square(cls):
        """The 2x2 lattice as a poset: bottom, two middles, top."""
        els = ["b", "l", "r", "t"]
        leq = [("b", "l"), ("b", "r"), ("b", "t"), ("l", "t"), ("r", "t")]
        return cls(els, leq, validate=False)

    @classmethod
    def from_covers(cls, elements, cover_pairs):
        """The order whose up-set of x is what the covers reach from x."""
        elements = list(elements)
        up = {}
        for x, y in cover_pairs:
            up.setdefault(x, []).append((y, None))
        # walk from cover sources outside `elements` too, so that validation
        # still refuses a cover leaving the universe
        leq = [(x, y) for x in {*elements, *up} for y in bfs(x, lambda u: up.get(u, ()), {})]
        return cls(elements, leq)


@dataclass(frozen=True)
class KPosetSpec:
    """Base poset with least element, marked subset, branching sets, depth."""

    base: FinitePoset
    marks: tuple
    branch: tuple  # tuple of (mark, tuple-of-branch-labels)
    depth: int

    def branch_of(self, x):
        for m, r in self.branch:
            if m == x:
                return r
        raise KeyError(x)

    def __post_init__(self):
        if self.base.least() is None:
            raise ValueError("base poset must have a least element")
        if not set(self.marks) <= set(self.base.elements):
            raise ValueError("marks must be base elements")
        if {m for m, _ in self.branch} != set(self.marks):
            raise ValueError("branch sets must index the marks")
        if len(set(self.marks)) < len(self.marks) or any(len(set(r)) < len(r) for _, r in self.branch):
            raise ValueError("marks and each branch set must not repeat an element")
        if type(self.depth) is not int or self.depth < 1:
            raise ValueError(f"depth must be an integer >= 1, got {self.depth!r}")


def _tree_nodes(spec):
    nodes = [(0, (), ())]
    for n in range(1, spec.depth):
        for xs in product(spec.marks, repeat=n):
            for rs in product(*(spec.branch_of(x) for x in xs)):
                nodes.append((n, xs, rs))
    return nodes


def kposet(spec, budget=100_000):
    """The tree-over-base poset: elements (n, xs, rs, p), ordered by tree
    prefix and, across levels, by the base order against the next mark.

    Returns (poset, tree nodes). The size law |A| = |T| * |P|, with
    |T| the sum of B^k over k < depth for B branch labels in all, is checked
    against the budget before the tree is built, and cross-checked on the
    element set after.
    """
    labels = sum(len(spec.branch_of(x)) for x in spec.marks)
    size = level = len(spec.base)
    for _ in range(1, spec.depth):
        if size > budget or not level:
            break
        level *= labels
        size += level
    if size > budget:
        raise BudgetExceeded(f"kposet would have {size} elements or more, over {budget}")
    tree = _tree_nodes(spec)
    elements = [(n, xs, rs, p) for (n, xs, rs) in tree for p in spec.base.elements]
    cross_check(len(set(elements)) == size, "kposet size law |A| = |T| * |P| fails")

    def tree_leq(a, b):
        (m, xs, rs), (n, ys, ss) = a, b
        return m <= n and xs == ys[:m] and rs == ss[:m]

    leq = []
    for (m, xs, rs, p) in elements:
        for (n, ys, ss, q) in elements:
            if not tree_leq((m, xs, rs), (n, ys, ss)):
                continue
            if m == n:
                if spec.base.leq(p, q):
                    leq.append(((m, xs, rs, p), (n, ys, ss, q)))
            else:
                if spec.base.leq(p, ys[m]):
                    leq.append(((m, xs, rs, p), (n, ys, ss, q)))
    return FinitePoset(elements, leq), tree


def kposet_cover_check(spec, budget=100_000):
    """The displayed two-case cover law against brute-force covers.

    a < b means a = (t|m, p), b = (t, q); a is covered by b exactly when
    either m = n and p is covered by q in the base, or n = m + 1 with
    p = x_m and q the base's least element.
    """
    poset, _ = kposet(spec, budget)
    base_covers = set(spec.base.covers())
    zero = spec.base.least()
    brute = set(poset.covers())
    predicted = set()
    for a in poset.elements:
        for b in poset.elements:
            if not poset.lt(a, b):
                continue
            (m, xs, rs, p) = a
            (n, ys, ss, q) = b
            case1 = m == n and (p, q) in base_covers
            case2 = n == m + 1 and p == ys[m] and q == zero
            if case1 != case2 and (case1 or case2):
                predicted.add((a, b))
    return predicted == brute, predicted, brute


def bm_le2(m):
    """Subsets of an m-element set of size at most 2, plus the full set,
    ordered by inclusion."""
    if m < 2:
        raise ValueError("m must be at least 2")
    full = frozenset(range(m))
    subsets = {frozenset()} | {frozenset([i]) for i in range(m)}
    subsets |= {frozenset([i, j]) for i in range(m) for j in range(i + 1, m)}
    subsets.add(full)
    els = sorted(subsets, key=lambda s: (len(s), tuple(sorted(s))))
    leq = [(a, b) for a in els for b in els if a <= b]
    return FinitePoset(els, leq, validate=False)


# Most linear extensions order_dimension_at_most lists before it refuses.
EXTENSION_CAP = 3000


def _linear_extensions(poset):
    """Linear extensions as {position: element}, lexicographically by the
    elements' positions in poset.elements: position k takes an element not
    placed yet whose strict lower bounds all are."""
    els = poset.elements

    def fits(ext, k):
        placed = list(ext.values())
        x = placed.pop()
        return x not in placed and all(y in placed for y in els if poset.lt(y, x))

    return assignments(range(len(els)), els, fits)


def order_dimension_at_most(poset, k):
    """Brute-force check that k linear extensions realize the order.

    Plumbing only: intended for 1 <= k <= 3 and small posets; anything
    beyond the extension cap raises rather than guessing.
    """
    if k < 1 or k > 3:
        raise ValueError(f"k = {k}: only 1 <= k <= 3 is supported")
    if len(poset.elements) > 10:
        raise TooLarge("order-dimension plumbing is capped at 10 elements")
    incomparable = [
        (a, b)
        for a in poset.elements
        for b in poset.elements
        if a != b and not poset.leq(a, b) and not poset.leq(b, a)
    ]
    if not incomparable:
        return True  # a chain: one extension realizes it
    exts = [tuple(ext.values()) for ext in islice(_linear_extensions(poset), EXTENSION_CAP + 1)]
    if len(exts) > EXTENSION_CAP:
        raise TooLarge(f"more than {EXTENSION_CAP} linear extensions")
    index = {p: i for i, p in enumerate(incomparable)}

    def realized(ext):
        pos = {x: i for i, x in enumerate(ext)}
        mask = 0
        for (a, b) in incomparable:
            if pos[a] < pos[b]:
                mask |= 1 << index[(a, b)]
        return mask

    # both orientations of every incomparable pair carry their own bit, so a
    # realizer is a k-subset of masks whose union covers everything
    masks = sorted({realized(e) for e in exts})
    full = (1 << len(incomparable)) - 1
    if k == 1:
        return False
    if k >= 2:
        for i, m1 in enumerate(masks):
            for m2 in masks[i:]:
                if m1 | m2 == full:
                    return True
    if k >= 3:
        for i, m1 in enumerate(masks):
            for m2 in masks[i:]:
                need = full & ~(m1 | m2)
                if any((m3 & need) == need for m3 in masks):
                    return True
    return False
