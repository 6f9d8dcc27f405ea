from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gampkit.congruence import conc_morphism
from gampkit.errors import IdealNotMapped, InvalidIdeal, TooManyIdeals
from gampkit.semilattice import (
    JoinSemilattice,
    SemIdeal,
    SemMorphism,
    enumerate_ideals,
    induced_morphism,
    is_ideal_induced,
    ker0,
    quotient,
)
from conftest import label_map, unvalidated
from test_palg import LABEL_STYLES, style_labels


def two():
    return JoinSemilattice.chain(2)


def chain3():
    return JoinSemilattice.chain(3)


def square_sem():
    return JoinSemilattice.product(two(), two())


# a random join-subsemilattice of the powerset of {0,1,2}, always containing
# the empty set; gives a varied supply of small semilattices
subset_strategy = st.sets(
    st.frozensets(st.integers(0, 2), max_size=3), min_size=0, max_size=4
)


def powerset_sub(extra):
    els = [frozenset(map(int, s)) for s in
           [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]]
    table = {(a, b): a | b for a in els for b in els}
    big = JoinSemilattice.from_table(els, frozenset(), table)
    closed = big.join_closure(extra)
    return big.sub(closed)


def reordered(sem, order):
    """The same semilattice with its elements in the given order."""
    return JoinSemilattice.from_table(
        order, sem.zero, {(x, y): sem.join(x, y) for x in order for y in order}
    )


class TestBasics:
    def test_validate_rejects_broken_table(self):
        with pytest.raises(ValueError):
            JoinSemilattice.from_table([0, 1], 0, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0})

    def test_constructor_checks_shape_and_range(self):
        rows = [[max(x, y) for y in range(3)] for x in range(3)]
        assert JoinSemilattice("abc", "a", rows).join("b", "c") == "c"
        for bad in (rows[:2], [*rows[:2], [2, 2]], [*rows[:2], [2, 2, 3]], [*rows[:2], [2, 2, -1]]):
            with pytest.raises(ValueError, match="join rows"):
                JoinSemilattice("abc", "a", bad, validate=False)

    def test_leq_from_table(self):
        s = chain3()
        assert s.leq(0, 2) and s.leq(1, 1) and not s.leq(2, 1)

    def test_ideal_validation(self):
        s = chain3()
        SemIdeal(s, {0, 1}).validate()
        with pytest.raises(InvalidIdeal):
            SemIdeal(s, {0, 2})  # not downward closed
        with pytest.raises(InvalidIdeal):
            SemIdeal(s, {1})  # missing zero


class TestQuotient:
    def test_trivial_ideal_is_identity_like(self):
        s = square_sem()
        q, proj = quotient(s, SemIdeal.zero(s))
        assert len(q) == len(s)
        assert all(proj(x) == x for x in s.elements)

    def test_chain_quotient(self):
        s = chain3()
        q, proj = quotient(s, SemIdeal(s, {0, 1}))
        assert len(q) == 2
        assert proj(1) == proj(0)
        ok, _ = is_ideal_induced(proj)
        assert ok
        assert ker0(proj).carrier == frozenset({0, 1})

    def test_square_quotient_to_two(self):
        s = square_sem()
        ideal = SemIdeal(s, {(0, 0), (1, 0)})
        q, proj = quotient(s, ideal)
        assert len(q) == 2

    def test_foreign_ideal_refused(self):
        # an ideal of another semilattice is refused, not rebuilt
        with pytest.raises(InvalidIdeal):
            quotient(chain3(), SemIdeal(JoinSemilattice.chain(4), {0, 1}))

    def test_projection_always_ideal_induced(self):
        s = square_sem()
        for ideal in enumerate_ideals(s):
            q, proj = quotient(s, ideal)
            ok, _ = is_ideal_induced(proj)
            assert ok
            assert ker0(proj) == ideal


def projection(sem, ideal):
    return quotient(sem, ideal)[1]


class TestInducedMorphism:
    def test_identity(self):
        s = chain3()
        p = projection(s, SemIdeal(s, {0, 1}))
        psi = induced_morphism(SemMorphism.identity(s), p, p)
        assert psi.is_injective() and psi.is_surjective()

    def test_collapse_becomes_iso(self):
        s, t = chain3(), two()
        phi = SemMorphism.from_map(s, t, {0: 0, 1: 0, 2: 1})
        psi = induced_morphism(
            phi, projection(s, SemIdeal(s, {0, 1})), projection(t, SemIdeal.zero(t))
        )
        assert psi.is_injective() and psi.is_surjective()

    def test_ideal_not_mapped(self):
        s, t = chain3(), chain3()
        with pytest.raises(IdealNotMapped):
            induced_morphism(
                SemMorphism.identity(s),
                projection(s, SemIdeal(s, {0, 1})),
                projection(t, SemIdeal.zero(t)),
            )

    def test_projection_missing_a_class_is_refused(self):
        # ps misses the middle of the chain, so the induced map is not total
        s, t = two(), chain3()
        ps = SemMorphism.from_map(s, t, {0: 0, 1: 2})
        with pytest.raises(ValueError, match="map is not 3 indices below 2"):
            induced_morphism(SemMorphism.identity(s), ps, SemMorphism.identity(s))

    def test_trivial_source_ideal_factors_projection(self):
        s = square_sem()
        ideal = SemIdeal(s, {(0, 0), (0, 1)})
        q, proj = quotient(s, ideal)
        psi = induced_morphism(SemMorphism.identity(s), projection(s, SemIdeal.zero(s)), proj)
        assert label_map(psi) == label_map(proj)
        assert psi.target is q


class TestIdealInduced:
    def test_non_surjective(self):
        s, t = two(), chain3()
        phi = SemMorphism.from_map(s, t, {0: 0, 1: 2})
        ok, witness = is_ideal_induced(phi)
        assert not ok and witness[0] == "not surjective"

    def test_projection_with_absorbers(self):
        s, t = square_sem(), two()
        phi = SemMorphism.from_map(s, t, {(a, b): a for a in (0, 1) for b in (0, 1)})
        ok, witness = is_ideal_induced(phi)
        assert ok
        assert all(z in {(0, 0), (0, 1)} for z in witness.values())

    def test_round_trip_iso(self):
        # any ideal-induced morphism factors as quotient then bijection
        s = square_sem()
        for ideal in enumerate_ideals(s):
            _, proj = quotient(s, ideal)
            psi = induced_morphism(
                proj, projection(s, ker0(proj)), projection(proj.target, SemIdeal.zero(proj.target))
            )
            assert psi.is_injective() and psi.is_surjective()


class TestEnumerateIdeals:
    def test_two(self):
        out = enumerate_ideals(two())
        assert [sorted(i.carrier) for i in out] == [[0], [0, 1]]

    def test_chain(self):
        s = chain3()
        assert {i.carrier for i in enumerate_ideals(s)} == set(ideals_by_brute_force(s))
        assert len(ideals_by_brute_force(s)) == 3

    def test_square(self):
        # brute force over subsets gives 4: the three-element downset of the
        # two atoms is not join-closed
        s = square_sem()
        assert len(ideals_by_brute_force(s)) == 4
        assert len(enumerate_ideals(s)) == 4


def ideals_by_brute_force(s):
    """Reference: every subset that contains zero and is closed downward and
    under joins."""
    out = []
    for r in range(1, len(s) + 1):
        for sub in map(set, combinations(s.elements, r)):
            if (
                s.zero in sub
                and all(x in sub for x in s.elements for y in sub if s.leq(x, y))
                and all(s.join(x, y) in sub for x in sub for y in sub)
            ):
                out.append(frozenset(sub))
    return out


@settings(max_examples=40, deadline=None)
@given(subset_strategy)
def test_enumerate_ideals_against_brute_force(extra):
    s = powerset_sub(extra)
    found = [i.carrier for i in enumerate_ideals(s)]
    brute = ideals_by_brute_force(s)
    assert found == sorted(brute, key=lambda c: (len(c), sorted(s.index(x) for x in c)))
    assert len(enumerate_ideals(s, bound=len(brute))) == len(brute)
    with pytest.raises(TooManyIdeals):
        enumerate_ideals(s, bound=len(brute) - 1)


def pairwise_closure(s, subset):
    """Reference: add the joins of all pairs until nothing is new."""
    closed = {s.zero} | set(subset)
    while not (joins := {s.join(x, y) for x in closed for y in closed}) <= closed:
        closed |= joins
    return frozenset(closed)


@settings(max_examples=40, deadline=None)
@given(subset_strategy, st.data())
def test_join_closure_is_the_pairwise_fixpoint(extra, data):
    s = powerset_sub(extra)
    gens = data.draw(st.sets(st.sampled_from(s.elements)))
    assert s.join_closure(gens) == pairwise_closure(s, gens)


@settings(max_examples=40, deadline=None)
@given(subset_strategy)
def test_quotient_round_trip_property(extra):
    s = powerset_sub(extra)
    for ideal in enumerate_ideals(s):
        q, proj = quotient(s, ideal)
        ok, _ = is_ideal_induced(proj)
        assert ok
        assert ker0(proj) == ideal
        # quotient of a quotient is a single quotient up to bijection
        for ideal2 in enumerate_ideals(q):
            q2, proj2 = quotient(q, ideal2)
            composite = proj2.after(proj)
            ok2, _ = is_ideal_induced(composite)
            assert ok2
            q3, proj3 = quotient(s, ker0(composite))
            assert len(q3) == len(q2)


def brute_generated(s, gens):
    """Reference for SemIdeal.generated: the down-set of the join closure."""
    closed = s.join_closure(gens)
    return frozenset(x for x in s.elements if any(s.leq(x, y) for y in closed))


def brute_quotient(s, ideal):
    """Reference for quotient: each element joins the class of the first
    earlier representative it is related to by some absorber in the ideal."""

    def related(x, y):
        return any(s.join(x, u) == s.join(y, u) for u in ideal.carrier)

    reps = {}
    for x in s.elements:
        reps[x] = next((r for r in reps.values() if related(x, r)), x)
    classes = [x for x in s.elements if reps[x] == x]
    table = {(a, b): reps[s.join(a, b)] for a in classes for b in classes}
    return classes, reps[s.zero], table, reps


def assert_quotient_matches_reference(s, ideal):
    q, proj = quotient(s, ideal)
    classes, zero, table, reps = brute_quotient(s, ideal)
    assert list(q.elements) == classes and q.zero == zero
    assert q.join_rows == JoinSemilattice.from_table(classes, zero, table).join_rows
    assert list(label_map(proj).items()) == list(reps.items())


@settings(max_examples=40, deadline=None)
@given(subset_strategy, st.data())
def test_ideals_by_their_top_match_the_references(extra, data):
    s = powerset_sub(extra)
    s = reordered(s, data.draw(st.permutations(s.elements)))
    for ideal in enumerate_ideals(s):
        assert brute_generated(s, ideal.carrier) == ideal.carrier
        assert_quotient_matches_reference(s, ideal)
    gens = data.draw(st.sets(st.sampled_from(s.elements)))
    assert SemIdeal.generated(s, gens).carrier == brute_generated(s, gens)


def induced_by_ideals(phi, ideal_i, ideal_j):
    """Reference for induced_morphism: the ideal-taking form it replaced,
    which checks that phi(I) lies inside J and quotients both ends itself."""
    if not phi.apply_set(ideal_i.carrier) <= ideal_j.carrier:
        raise IdealNotMapped("phi(I) is not contained in J")
    qs, ps = quotient(phi.source, ideal_i)
    qt, pt = quotient(phi.target, ideal_j)
    mapping = {}
    for a in phi.source.elements:
        c = ps(a)
        v = pt(phi(a))
        if mapping.setdefault(c, v) != v:
            raise IdealNotMapped(f"induced map not well-defined at class of {a!r}")
    return SemMorphism.from_map(qs, qt, mapping)


def assert_descent_matches_reference(phi, sems, quotient_of, descend, reference):
    """On every pair (I, J) of ideals of the two semilattices sems of phi's
    ends, descending phi along the projections quotient_of(end, I)[1] and
    quotient_of(end, J)[1] gives the reference's morphism, with equal ends,
    and raises IdealNotMapped exactly where reference(phi, I, J) does.
    Returns the number of pairs that raised."""
    source_sem, target_sem = sems
    sources = [(i, quotient_of(phi.source, i)[1]) for i in enumerate_ideals(source_sem)]
    targets = [(j, quotient_of(phi.target, j)[1]) for j in enumerate_ideals(target_sem)]
    raised = 0
    for i, pi in sources:
        for j, pj in targets:
            try:
                expected = reference(phi, i, j)
            except IdealNotMapped:
                raised += 1
                with pytest.raises(IdealNotMapped):
                    descend(phi, pi, pj)
                continue
            got = descend(phi, pi, pj)
            assert got == expected
            assert (got.source, got.target) == (expected.source, expected.target)
    return raised


def test_descent_matches_the_ideal_reference_on_corpus_maps(corpus_maps):
    raised = {}
    for label, f in corpus_maps.items():
        phi = conc_morphism(f)
        raised[label] = assert_descent_matches_reference(
            phi, (phi.source, phi.target), quotient, induced_morphism, induced_by_ideals
        )
    # both outcomes occur: an identity cannot carry a larger ideal into a smaller
    assert raised["X1"] > 0 and raised["two"] == 1


@settings(max_examples=40, deadline=None)
@given(subset_strategy, st.data())
def test_descent_matches_the_ideal_reference_on_projections(extra, data):
    s = powerset_sub(extra)
    _, phi = quotient(s, data.draw(st.sampled_from(enumerate_ideals(s))))
    assert_descent_matches_reference(
        phi, (phi.source, phi.target), quotient, induced_morphism, induced_by_ideals
    )


def test_equality_reads_the_join_tables():
    # in the same element order and in another, the rows are read relabelled
    chain = JoinSemilattice.chain(4)
    # 0 below the incomparable 1 and 2, both below 3
    square = {
        (x, y): x if x == y else max(x, y) if min(x, y) == 0 else 3
        for x in range(4) for y in range(4)
    }
    other = JoinSemilattice.from_table(range(4), 0, square)
    assert chain == JoinSemilattice.chain(4) and chain != other and other != chain
    reordered = JoinSemilattice.from_table([2, 0, 3, 1], 0, square)
    assert reordered == other and reordered != chain and chain != reordered
    assert other == other and JoinSemilattice(range(4), 1, other.join_rows, validate=False) != other


def label_validate(elements, zero, table):
    """Reference for JoinSemilattice.from_table and validate: the label loop
    that checked a join table when the join was a label-keyed dict."""
    els = tuple(elements)
    if len(set(els)) != len(els):
        raise ValueError("duplicate elements")
    if zero not in els:
        raise ValueError("zero not an element")
    for x in els:
        for y in els:
            v = table.get((x, y))
            if v is None or v not in els:
                raise ValueError(f"join table not total at {(x, y)}")
    for x in els:
        if table[(zero, x)] != x:
            raise ValueError(f"zero not neutral at {x}")
        if table[(x, x)] != x:
            raise ValueError(f"join not idempotent at {x}")
        for y in els:
            if table[(x, y)] != table[(y, x)]:
                raise ValueError(f"join not commutative at {(x, y)}")
            for z in els:
                if table[(table[(x, y)], z)] != table[(x, table[(y, z)])]:
                    raise ValueError(f"join not associative at {(x, y, z)}")


def label_morphism_validate(s, t, m):
    """Reference for SemMorphism.validate: the label loop it replaced."""
    for x in s.elements:
        if x not in m or m[x] not in t:
            raise ValueError(f"map not total at {x!r}")
    if m[s.zero] != t.zero:
        raise ValueError("zero not preserved")
    for x in s.elements:
        for y in s.elements:
            if m[s.join(x, y)] != t.join(m[x], m[y]):
                raise ValueError(f"join not preserved at {(x, y)}")


def first_error(check, *args):
    """The message of the ValueError check(*args) raises, or None."""
    try:
        check(*args)
    except ValueError as e:
        return str(e)
    return None


def assert_from_table_matches_the_label_loop(elements, zero, table):
    expected = first_error(label_validate, elements, zero, table)
    assert first_error(JoinSemilattice.from_table, elements, zero, table) == expected
    if expected is None:
        s = JoinSemilattice.from_table(elements, zero, table)
        assert all(s.join(x, y) == table[(x, y)] for x in elements for y in elements)
        assert first_error(JoinSemilattice, s.elements, s.zero, s.join_rows) is None


@st.composite
def label_tables(draw):
    """(elements, zero, table): either the table of a random subsemilattice
    of the powerset of {0, 1, 2}, elements shuffled, or a random table on up
    to four integers; then, on purpose, up to two entries changed to an
    element or a foreign label, each with its mirror entry or alone, an
    entry dropped, an element repeated or the zero replaced."""
    if draw(st.booleans()):
        s = powerset_sub(draw(subset_strategy))
        elements = draw(st.permutations(s.elements))
        zero, foreign = s.zero, frozenset({3})
        table = {(x, y): s.join(x, y) for x in elements for y in elements}
    else:
        elements = list(range(draw(st.integers(1, 4))))
        zero, foreign = draw(st.sampled_from(elements)), len(elements)
        values = st.sampled_from(elements)
        table = {(x, y): draw(values) for x in elements for y in elements}
    pairs = st.sampled_from(sorted(table, key=repr))
    rarely = st.sampled_from([False] * 5 + [True])
    changes = st.tuples(pairs, st.sampled_from([*elements, foreign]), st.booleans())
    for (x, y), value, mirrored in draw(st.lists(changes, max_size=2)):
        table[(x, y)] = value
        if mirrored:
            table[(y, x)] = value
    if draw(rarely):
        del table[draw(pairs)]
    if draw(rarely):
        elements = [*elements, draw(st.sampled_from(elements))]
    if draw(rarely):
        zero = draw(st.sampled_from([*elements, foreign]))
    return elements, zero, table


@settings(max_examples=300, deadline=None)
@given(label_tables())
def test_from_table_matches_the_label_loop(case):
    assert_from_table_matches_the_label_loop(*case)


@pytest.mark.parametrize(
    "elements, zero, table, message",
    [
        ([0, 1, 0], 0, {}, "duplicate elements"),
        ([0, 1], 2, {}, "zero not an element"),
        ([0, 1], 0, {(0, 0): 0, (0, 1): 1, (1, 0): 1}, "join table not total at (1, 1)"),
        ([0, 1], 0, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}, "join table not total at (1, 1)"),
        ([0, 1], 0, {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}, "zero not neutral at 1"),
        ([0, 1], 0, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, "join not idempotent at 1"),
        (
            [0, 1, 2], 0,
            {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (1, 1): 1, (1, 2): 1,
             (2, 0): 2, (2, 1): 2, (2, 2): 2},
            "join not commutative at (1, 2)",
        ),
        (
            # 1 v 2 = 3 but 3 v 2 = 2: (1 v 2) v 2 = 2 against 1 v (2 v 2) = 3
            [0, 1, 2, 3], 0,
            {**{(x, y): max(x, y) for x in range(4) for y in range(4)},
             (1, 2): 3, (2, 1): 3, (2, 3): 2, (3, 2): 2},
            "join not associative at (1, 2, 2)",
        ),
    ],
)
def test_from_table_names_each_first_failure(elements, zero, table, message):
    assert first_error(label_validate, elements, zero, table) == message
    assert_from_table_matches_the_label_loop(elements, zero, table)


def assert_validate_matches_the_label_loop(s, t, mapping):
    expected = first_error(label_morphism_validate, s, t, mapping)
    assert first_error(SemMorphism.from_map, s, t, mapping) == expected
    return expected


@st.composite
def semilattice_maps(draw):
    """(s, t, mapping) between subsemilattices of the powerset of {0, 1, 2},
    elements shuffled: the image map of a random function on {0, 1, 2},
    a join-homomorphism, into a t that holds its image; then, on purpose, up
    to two images changed to another element of t or a foreign label, and
    an image dropped."""

    def shuffled(sem):
        return reordered(sem, draw(st.permutations(sem.elements)))

    nonzero = st.frozensets(st.integers(0, 2), min_size=1)
    s = shuffled(powerset_sub(draw(st.sets(nonzero, min_size=2, max_size=4))))
    g = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
    mapping = {x: frozenset(g[i] for i in x) for x in s.elements}
    t = shuffled(powerset_sub([*draw(subset_strategy), *mapping.values()]))
    sources = st.sampled_from(s.elements)
    for _ in range(draw(st.integers(1, 2)) if draw(st.booleans()) else 0):
        x = draw(sources)
        mapping[x] = draw(st.sampled_from([y for y in [*t.elements, "x"] if y != mapping.get(x)]))
    if draw(st.sampled_from([False] * 5 + [True])):
        del mapping[draw(sources)]
    return s, t, mapping


@settings(max_examples=300, deadline=None)
@given(semilattice_maps())
def test_morphism_validate_matches_the_label_loop(case):
    assert_validate_matches_the_label_loop(*case)


def test_conc_morphisms_validate_as_the_label_loop(corpus_maps):
    # each Conc morphism of the corpus is accepted; moving one image is
    # accepted or refused, naming the same first failure, as by the label loop
    failures = set()
    for f in corpus_maps.values():
        phi = conc_morphism(f)
        s, t = phi.source, phi.target
        assert assert_validate_matches_the_label_loop(s, t, label_map(phi)) is None
        for x in s.elements:
            for y in t.elements:
                if y != phi(x):
                    message = assert_validate_matches_the_label_loop(s, t, {**label_map(phi), x: y})
                    failures.add(message and message.split(" at ")[0])
    assert failures == {None, "zero not preserved", "join not preserved"}


# The label loops that SemMorphism and induced_morphism ran while a map was
# a label dict, kept as references for the index lists, in both label styles.


def renamed(sem, names, order):
    """sem with each element x renamed names[x], listed in the given order."""
    table = {(names[x], names[y]): names[sem.join(x, y)] for x in order for y in order}
    return JoinSemilattice.from_table([names[x] for x in order], names[sem.zero], table)


@st.composite
def styled_maps(draw, style):
    """semilattice_maps' (s, t, mapping), both ends renamed in the label
    style and listed in a shuffled order; a foreign image stays foreign."""
    s, t, mapping = draw(semilattice_maps())
    names = []
    for sem in (s, t):
        labels = style_labels(style, draw(st.permutations(range(len(sem)))))
        names.append(dict(zip(sem.elements, labels)))
    foreign = style_labels(style, [len(t)])[0]
    ends = [renamed(sem, n, draw(st.permutations(sem.elements))) for sem, n in zip((s, t), names)]
    return (*ends, {names[0][x]: names[1].get(y, foreign) for x, y in mapping.items()})


def label_induced(s, mapping, reps_s, reps_t):
    """induced_morphism's loop on labels, over the label class maps of the
    two quotients: the induced map, or the message it raised."""
    induced = {}
    for a in s.elements:
        c, v = reps_s[a], reps_t[mapping[a]]
        if induced.setdefault(c, v) != v:
            return f"phi(I) is not inside J: no induced map at class of {a!r}"
    return induced


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(LABEL_STYLES).flatmap(styled_maps), st.data())
def test_sem_morphisms_match_the_label_loops(case, data):
    s, t, mapping = case
    expected = first_error(label_morphism_validate, s, t, mapping)
    assert first_error(SemMorphism.from_map, s, t, mapping) == expected
    if expected is None:
        phi = SemMorphism.from_map(s, t, mapping)
        assert all(phi(x) == mapping[x] for x in s.elements)
        for ideal_i in enumerate_ideals(s):
            for ideal_j in enumerate_ideals(t):
                reps = brute_quotient(s, ideal_i)[3], brute_quotient(t, ideal_j)[3]
                try:
                    got = label_map(induced_morphism(phi, projection(s, ideal_i), projection(t, ideal_j)))
                except IdealNotMapped as e:
                    got = str(e)
                assert got == label_induced(s, mapping, *reps)
    # any maps, unvalidated, the second out of t listed in another order
    f = {x: data.draw(st.sampled_from(t.elements)) for x in s.elements}
    g = {y: data.draw(st.sampled_from(s.elements)) for y in t.elements}
    fm, gm = unvalidated(s, t, f), unvalidated(reordered(t, t.elements[::-1]), s, g)
    assert label_map(gm.after(fm)) == {x: g[f[x]] for x in s.elements}
    assert label_map(fm.after(gm)) == {y: f[g[y]] for y in t.elements}
    assert fm.is_injective() == (len(set(f.values())) == len(f))
    assert fm.is_surjective() == (set(f.values()) == set(t.elements))
    other = dict(f)
    if data.draw(st.booleans()):
        other[data.draw(st.sampled_from(s.elements))] = data.draw(st.sampled_from(t.elements))
    again = unvalidated(reordered(s, s.elements[::-1]), reordered(t, t.elements[::-1]), other)
    assert (fm == again) == (again == fm) == (f == other)
    if f == other:
        assert hash(fm) == hash(again)


@pytest.mark.parametrize("to", [[0], [0, 1, 1, 0], [0, 2, 1], [0, 1, -1], [0, None, 2], [0, 1.0, 2]])
def test_constructor_refuses_a_list_of_the_wrong_length_or_range(to):
    with pytest.raises(ValueError):
        SemMorphism(chain3(), chain3(), to)
