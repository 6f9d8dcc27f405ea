"""Reference implementations the tests check the package against: each is
slow or exhaustive on purpose, and the package itself never calls them."""

from gampkit.congruence import all_congruences_bruteforce, con_meet, is_congruence
from gampkit.errors import cross_check
from gampkit.palg import PalgMorphism, compile_identities, is_palg_isomorphism
from gampkit.pregamp import PregampMorphism, _first_variety_failure
from gampkit.semilattice import SemMorphism
from gampkit.util import assignments


def least_congruence_bruteforce(algebra, x, y, bound=7):
    """Oracle for principal congruences: meet of all congruences containing (x, y)."""
    candidates = [t for t in all_congruences_bruteforce(algebra, bound) if t.same(x, y)]
    best = candidates[0]
    for t in candidates[1:]:
        best = con_meet(best, t)
    cross_check(is_congruence(algebra, best), "meet of congruences must be a congruence")
    return best


def pregamp_satisfies_identity(pg, t1, t2):
    """Identity satisfaction for pregamps: every ideal quotient must satisfy it.

    Quotients can gain definedness, so this is strictly stronger than the
    carrier satisfying the identity. Returns (True, None) or
    (False, (ideal, counterexample tuple)).
    """
    failure = _first_variety_failure(pg, compile_identities([(None, t1, t2)]))
    return (True, None) if failure is None else (False, failure[1:])


# Backtracking steps each level of an isomorphism search may take before it
# gives up.
ISO_BUDGET = 200_000


def _injective(mapping):
    return len(set(mapping.values())) == len(mapping)


def pregamp_isomorphisms(pg1, pg2):
    """Generate every isomorphism of two small pregamps by backtracking.

    Semilattice isomorphisms are tried first, then carrier bijections that
    intertwine the distances. Each level of the search raises SearchExhausted
    past ISO_BUDGET steps rather than truncating, so an exhausted generator
    means there are no more.
    """
    A1, A2, s1, s2 = pg1.carrier, pg2.carrier, pg1.sem, pg2.sem
    if len(A1) != len(A2) or len(s1) != len(s2):
        return

    def sem_fits(mapping, x):
        return (
            _injective(mapping)
            and mapping.get(s1.zero, s2.zero) == s2.zero
            and all(
                s2.join(mapping[a], mapping[b]) == mapping[j]
                for a in mapping
                for b in mapping
                if (j := s1.join(a, b)) in mapping
            )
        )

    for smap in assignments(s1.elements, s2.elements, sem_fits, ISO_BUDGET):
        smor = SemMorphism(s1, s2, [s2.index(smap[x]) for x in s1.elements])

        def carrier_fits(mapping, x):
            y = mapping[x]
            return _injective(mapping) and all(
                smor(pg1.delta(x, a)) == pg2.delta(y, fa) for a, fa in mapping.items() if a != x
            )

        for mapping in assignments(A1.universe, A2.universe, carrier_fits, ISO_BUDGET):
            try:
                m = PregampMorphism(pg1, pg2, PalgMorphism.from_map(A1, A2, mapping), smor).validate()
            except ValueError:
                continue
            if is_palg_isomorphism(m.f):
                yield m
