"""Small shared helpers: deterministic ordering, true/false verdicts, the
morphisms' index lists (`IndexMap`), and the package's one breadth-first
walk (`bfs`, with `shortest_path` on it) and one backtracking search
(`assignments`)."""

from dataclasses import dataclass, field

from .errors import SearchExhausted


def sort_key(x):
    """Total deterministic order on heterogeneous hashable values.

    Elements of universes and semilattices are opaque ids (ints, strings,
    tuples, congruences); canonical labelings and enumeration orders all go
    through this one key.
    """
    if isinstance(x, bool):
        return (0, "bool", x)
    if isinstance(x, int):
        return (0, "int", x)
    if isinstance(x, str):
        return (1, "str", x)
    if isinstance(x, tuple):
        return (2, "tuple", tuple(sort_key(y) for y in x))
    if isinstance(x, frozenset):
        return (3, "frozenset", tuple(sorted(sort_key(y) for y in x)))
    key = getattr(x, "_sort_key", None)
    if key is not None:
        return (4, type(x).__name__, key())
    return (5, type(x).__name__, repr(x))


def sorted_elements(xs):
    return sorted(xs, key=sort_key)


class IndexMap:
    """A map of finite structures held once, as the index list to: to[i]
    indexes in the target the image of the source's i-th element. The
    constructor checks that it holds one integer in range per source
    element; calling the map reads a label.
    A subclass names an end's labels in index order (_labels) and their
    positions (_positions), and validates."""

    def __init__(self, source, target, to, validate=True):
        self.source = source
        self.target = target
        self.to = to = list(to)
        try:  # None or a string fails min, and a float makes the sum a float
            fits = len(to) == len(source) and 0 <= min(to, default=0) and type(sum(to)) is int
        except TypeError:
            fits = False
        if not (fits and max(to, default=-1) < len(target)):
            raise ValueError(f"map is not {len(source)} indices below {len(target)}")
        if validate:
            self.validate()

    def __call__(self, x):
        return self._labels(self.target)[self.to[self._positions(self.source)[x]]]

    def to_between(self, source, target):
        """to, read from source's element order into target's, for a source
        and a target equal to this map's ends: to itself on its own ends."""
        if source is self.source and target is self.target:
            return self.to
        at = self._positions(target)
        return [at[self(x)] for x in self._labels(source)]

    def is_injective(self):
        return len(set(self.to)) == len(self.to)

    def is_surjective(self):
        return len(set(self.to)) == len(self.target)

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.source == other.source
            and self.target == other.target
            and self.to == other.to_between(self.source, self.target)
        )

    def __repr__(self):
        return f"{type(self).__name__}({len(self.source)}->{len(self.target)})"

    @classmethod
    def identity(cls, end):
        return cls(end, end, range(len(end)), validate=False)


def factor_through(classes, values, size):
    """The list d of the given size with d[classes[k]] == values[k] for
    every k, None where no class is hit, and the first k whose value
    differs from an earlier one's in its class, or None: the map a/I ->
    f(a)/J read on class indices."""
    d = [None] * size
    for k, (c, v) in enumerate(zip(classes, values)):
        if d[c] is None:
            d[c] = v
        elif d[c] != v:
            return d, k
    return d, None


TRUE = "true"
FALSE = "false"


@dataclass
class Verdict:
    """Outcome of a (possibly bounded) check.

    status is "true" or "false"; bounded searches report their caps in
    `bounds` rather than silently absorbing them. A search that runs out of
    budget raises instead of returning a verdict.
    """

    status: str
    witness: object = None
    bounds: dict = field(default_factory=dict)

    @classmethod
    def true(cls, witness=None, bounds=None):
        return cls(TRUE, witness, dict(bounds or {}))

    @classmethod
    def false(cls, witness=None, bounds=None):
        return cls(FALSE, witness, dict(bounds or {}))

    def __bool__(self):
        return self.status == TRUE

    @property
    def exit_code(self):
        return 0 if self else 1


def combine_verdicts(verdicts):
    """Aggregate: the first false verdict, else true."""
    return next((v for v in verdicts if v.status == FALSE), Verdict.true())


def bfs(start, neighbours, parents, depth=None):
    """Breadth-first walk from start, yielding each state when first reached.

    neighbours(u) yields (v, label) pairs in the order they are explored.
    The walk records parents[v] = (u, label) for the step that first reached
    v, and parents[start] = None; `parents` is its only visited map, so the
    caller reads the BFS tree from it. With a depth, only states within that
    many steps of start are reached.
    """
    parents[start] = None
    yield start
    layer, steps = [start], 0
    while layer and steps != depth:
        steps += 1
        reached = []
        for u in layer:
            for v, label in neighbours(u):
                if v not in parents:
                    parents[v] = (u, label)
                    yield v
                    reached.append(v)
        layer = reached


def shortest_path(start, goal, neighbours):
    """Breadth-first shortest path from start to goal.

    neighbours(u) yields (v, label) pairs in the order they are explored, so
    the path found is determined by that order. Returns the (u, v, label)
    steps of the path, [] when start equals goal, or None when goal is
    unreachable.
    """
    parents = {}
    for v in bfs(start, neighbours, parents):
        if v == goal:
            steps = []
            while parents[v] is not None:
                u, label = parents[v]
                steps.append((u, v, label))
                v = u
            steps.reverse()
            return steps
    return None


def assignments(slots, values, fits, budget=None):
    """Every assignment of values to slots whose every prefix fits.

    Slots are filled in order and values tried in order. fits(assignment,
    slot) sees the partial assignment, a dict in slot order, just after
    `slot` got its value; a value that does not fit is not extended. Yields
    a copy of each complete assignment. Each value tried is one step, and
    past `budget` steps SearchExhausted is raised, so an exhausted generator
    really means there are no more.
    """
    slots, values = list(slots), list(values)
    assignment = {}
    steps = 0

    def fill(k):
        nonlocal steps
        if k == len(slots):
            yield dict(assignment)
            return
        slot = slots[k]
        for v in values:
            steps += 1
            if budget is not None and steps > budget:
                raise SearchExhausted("steps of a backtracking search", budget)
            assignment[slot] = v
            if fits(assignment, slot):
                yield from fill(k + 1)
        assignment.pop(slot, None)

    return fill(0)
