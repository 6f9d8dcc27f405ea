"""Small shared helpers: deterministic ordering and three-valued verdicts."""

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
UNKNOWN = "unknown"


@dataclass
class Verdict:
    """Outcome of a (possibly bounded) check.

    status is one of "true", "false", "unknown"; bounded searches report
    their caps in `bounds` rather than silently absorbing them.
    """

    status: str
    witness: object = None
    bounds: dict = field(default_factory=dict)
    detail: str = ""

    @classmethod
    def true(cls, witness=None, bounds=None, detail=""):
        return cls(TRUE, witness, dict(bounds or {}), detail)

    @classmethod
    def false(cls, witness=None, bounds=None, detail=""):
        return cls(FALSE, witness, dict(bounds or {}), detail)

    def __bool__(self):
        return self.status == TRUE

    @property
    def exit_code(self):
        return {TRUE: 0, FALSE: 1, UNKNOWN: 2}[self.status]


def combine_verdicts(verdicts):
    """Aggregate: false if any refuted, unknown if none refuted but some unknown."""
    verdicts = list(verdicts)
    for v in verdicts:
        if v.status == FALSE:
            return Verdict(FALSE, v.witness, v.bounds, v.detail)
    for v in verdicts:
        if v.status == UNKNOWN:
            return Verdict(UNKNOWN, v.witness, v.bounds, v.detail)
    return Verdict.true()

