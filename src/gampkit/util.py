"""Small shared helpers: deterministic ordering and true/false verdicts."""

from dataclasses import dataclass, field


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

