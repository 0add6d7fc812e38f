import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from illposed.errors import CompositionError, InvalidInputError
from illposed.finite_maps import (
    FiniteMap,
    check_fisher_consistency_theorem,
    check_parameter_equivalence_theorem,
    construct_inner_inverse,
    enumerate_sections,
    fisher_consistent_estimator,
    format_finite_map,
    is_injective,
    parameter_identifiable_sections,
    parameter_identifiable_standard,
    parse_finite_map,
    promote_to_generalized,
    restrict_to_range,
    restricted_growth_strings,
    verify_inner_inverse,
    verify_outer_inverse,
)

# discrete analogue of the sum map P(x, y) = x + y on {0,1}^2 and the
# coordinate parameter q(x, y) = x, enumerated as tables over domain size 4
P_SUM = FiniteMap(4, 3, (0, 1, 1, 2))
Q_COORD = FiniteMap(4, 2, (0, 0, 1, 1))


def all_maps(domain_size, codomain_size):
    """Yield every FiniteMap ``domain_size -> codomain_size``: the table-by-table
    oracle for the checks that sweep kernel classes."""
    for table in itertools.product(range(codomain_size), repeat=domain_size):
        yield FiniteMap(domain_size, codomain_size, table)


@st.composite
def finite_maps(draw, max_domain=5, max_codomain=5):
    d = draw(st.integers(1, max_domain))
    c = draw(st.integers(1, max_codomain))
    table = draw(st.lists(st.integers(0, c - 1), min_size=d, max_size=d))
    return FiniteMap(d, c, tuple(table))


@st.composite
def relabelled_pairs(draw, max_domain=5, max_codomain=5):
    """(P, q) on a common domain, and both again after injective codomain relabellings."""
    d = draw(st.integers(1, max_domain))
    pair = []
    for _ in range(2):
        c = draw(st.integers(1, max_codomain))
        table = draw(st.lists(st.integers(0, c - 1), min_size=d, max_size=d))
        wider = draw(st.integers(c, max_codomain + 1))
        rho = draw(st.permutations(range(wider)))[:c]  # injective {0..c-1} -> {0..wider-1}
        pair.append((FiniteMap(d, c, tuple(table)), FiniteMap(d, wider, tuple(rho[v] for v in table))))
    (p, p2), (q, q2) = pair
    return p, q, p2, q2


def canonical_kernel(table):
    """Number the blocks of the kernel of a table in order of first occurrence."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(v, len(first)) for v in table)


def theorem1_verdict(p):
    """(estimator exists, P injective, T o P = identity) for one table."""
    t = fisher_consistent_estimator(p)
    inverts = t is not None and t.after(p) == FiniteMap.identity(p.domain_size)
    return t is not None, is_injective(p), inverts


def theorem1_counterexample(p):
    exists, injective, inverts = theorem1_verdict(p)
    return exists != injective or (exists and not inverts)


class TestFiniteMap:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            FiniteMap(0, 1, ())
        with pytest.raises(InvalidInputError):
            FiniteMap(2, 2, (0,))
        with pytest.raises(InvalidInputError):
            FiniteMap(2, 2, (0, 2))

    def test_identity(self):
        assert FiniteMap.identity(3).table == (0, 1, 2)

    def test_compose_shapes(self):
        p = FiniteMap(2, 3, (0, 1))
        assert p.after(FiniteMap.identity(2)) == p
        with pytest.raises(CompositionError):
            p.after(FiniteMap(2, 3, (0, 1)))

    def test_text_format_round_trip(self):
        m = parse_finite_map("2 3 : 0,1")
        assert m == FiniteMap(2, 3, (0, 1))
        assert parse_finite_map(format_finite_map(m)) == m
        with pytest.raises(InvalidInputError):
            parse_finite_map("2 3 0,1")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 : 0,1", "expected 'domain_size codomain_size :'"),
            ("2 3 4 : 0,1", "expected 'domain_size codomain_size :'"),
            ("2 x : 0,1", "malformed finite map"),
            ("2 3 : 0,one", "malformed finite map"),
            ("1 0 : 0", "codomain_size must be >= 1, got 0"),
        ],
    )
    def test_malformed_text_rejected(self, text, message):
        with pytest.raises(InvalidInputError, match=message):
            parse_finite_map(text)


class TestInjectivity:
    def test_injective(self):
        assert is_injective(FiniteMap(2, 3, (0, 1)))

    def test_collision(self):
        assert not is_injective(FiniteMap(3, 2, (0, 0, 1)))

    def test_sum_map_not_injective(self):
        # oracle: enumerate all pairs of domain points
        collide = any(
            P_SUM.table[i] == P_SUM.table[j]
            for i, j in itertools.combinations(range(P_SUM.domain_size), 2)
        )
        assert collide
        assert not is_injective(P_SUM)


class TestInnerOuterInverses:
    def test_construct_simple(self):
        p = FiniteMap(2, 3, (0, 1))
        g = construct_inner_inverse(p)
        assert g.table == (0, 1, 0)
        assert verify_inner_inverse(p, g)

    def test_construct_smallest_preimage(self):
        p = FiniteMap(2, 2, (1, 1))
        g = construct_inner_inverse(p)
        assert g.table == (0, 0)
        assert verify_inner_inverse(p, g)

    def test_construct_identity(self):
        p = FiniteMap.identity(3)
        assert construct_inner_inverse(p) == p

    def test_verify_inner_negative(self):
        # direct composition: P(G(P(0))) = P(2) = 1 != 0 = P(0)
        assert not verify_inner_inverse(FiniteMap(3, 2, (0, 0, 1)), FiniteMap(2, 3, (2, 2)))

    def test_verify_inner_identity(self):
        i2 = FiniteMap.identity(2)
        assert verify_inner_inverse(i2, i2)
        assert verify_outer_inverse(i2, i2)

    def test_verify_outer_example(self):
        assert verify_outer_inverse(FiniteMap(2, 3, (0, 1)), FiniteMap(3, 2, (0, 1, 0)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(CompositionError):
            verify_inner_inverse(FiniteMap(2, 3, (0, 1)), FiniteMap(2, 2, (0, 1)))
        with pytest.raises(CompositionError):
            verify_outer_inverse(FiniteMap(2, 3, (0, 1)), FiniteMap(3, 3, (0, 1, 0)))

    def test_inner_not_outer_exists(self):
        # exhaustive search over small tables for a G that is an inner
        # inverse of some P without being an outer inverse
        found = False
        for d, c in [(1, 2), (2, 2), (2, 3)]:
            for p in all_maps(d, c):
                for g in all_maps(c, d):
                    if verify_inner_inverse(p, g) and not verify_outer_inverse(p, g):
                        found = True
        assert found

    def test_promotion_idempotent_on_generalized(self):
        p = FiniteMap(2, 3, (0, 1))
        g = construct_inner_inverse(p)
        assert verify_outer_inverse(p, g)
        assert promote_to_generalized(p, g) == g

    def test_promotion_requires_inner(self):
        with pytest.raises(InvalidInputError):
            promote_to_generalized(FiniteMap(3, 2, (0, 0, 1)), FiniteMap(2, 3, (2, 2)))

    def test_promotion_exhaustive_3x3(self):
        # every inner inverse of every 3 -> 3 map promotes to a generalized
        # inverse (at most 27 * 27 pairs), and P o G is always idempotent
        for p in all_maps(3, 3):
            for g in all_maps(3, 3):
                if verify_inner_inverse(p, g):
                    promoted = promote_to_generalized(p, g)
                    assert verify_inner_inverse(p, promoted)
                    assert verify_outer_inverse(p, promoted)
                    hat = p.after(g)
                    assert hat.after(hat) == hat

    @given(finite_maps())
    def test_constructed_inverse_verifies(self, p):
        g = construct_inner_inverse(p)
        assert verify_inner_inverse(p, g)
        promoted = promote_to_generalized(p, g)
        assert verify_inner_inverse(p, promoted)
        assert verify_outer_inverse(p, promoted)

    @given(finite_maps())
    def test_construction_deterministic(self, p):
        assert construct_inner_inverse(p) == construct_inner_inverse(p)

    @given(finite_maps())
    def test_hat_composite_idempotent(self, p):
        g = construct_inner_inverse(p)
        hat = p.after(g)  # P o G on the codomain
        assert hat.after(hat) == hat


class TestFisherConsistency:
    def test_injective_map(self):
        p = FiniteMap(2, 3, (0, 1))
        t = fisher_consistent_estimator(p)
        assert t.table == (0, 1, 0)
        assert t.after(p) == FiniteMap.identity(2)

    def test_non_injective_returns_none(self):
        assert fisher_consistent_estimator(FiniteMap(2, 2, (1, 1))) is None

    def test_exhaustive_3_to_4(self):
        for p in all_maps(3, 4):
            t = fisher_consistent_estimator(p)
            assert (t is not None) == is_injective(p)
            if t is not None:
                assert t.after(p) == FiniteMap.identity(3)


class TestParameterIdentifiability:
    def test_example_standard(self):
        assert not parameter_identifiable_standard(P_SUM, Q_COORD)

    def test_q_equals_p(self):
        assert parameter_identifiable_standard(P_SUM, P_SUM)

    def test_q_constant(self):
        assert parameter_identifiable_standard(P_SUM, FiniteMap(4, 1, (0, 0, 0, 0)))

    def test_domain_mismatch(self):
        with pytest.raises(InvalidInputError):
            parameter_identifiable_standard(P_SUM, FiniteMap(3, 2, (0, 0, 1)))
        with pytest.raises(InvalidInputError):
            parameter_identifiable_sections(P_SUM, FiniteMap(3, 2, (0, 0, 1)))

    def test_example_sections(self):
        assert not parameter_identifiable_sections(P_SUM, Q_COORD)

    def test_injective_q_sections(self):
        p = FiniteMap(3, 3, (2, 0, 1))
        assert parameter_identifiable_sections(p, p)

    def test_agreement_small_exhaustive(self):
        maps = [m for c in (1, 2, 3) for m in all_maps(3, c)]
        for q in maps:
            q_onto = restrict_to_range(q)
            for p in maps:
                assert parameter_identifiable_standard(p, q) == (
                    parameter_identifiable_sections(p, q_onto)
                )


class TestSections:
    def test_fiber_product_count(self):
        assert len(enumerate_sections(FiniteMap(4, 2, (0, 0, 1, 1)))) == 4

    def test_bijective_unique_section(self):
        q = FiniteMap(3, 3, (2, 0, 1))
        sections = enumerate_sections(q)
        assert len(sections) == 1
        assert q.after(sections[0]) == FiniteMap.identity(3)

    def test_constant_map(self):
        assert len(enumerate_sections(FiniteMap(3, 1, (0, 0, 0)))) == 3

    def test_non_surjective_raises(self):
        with pytest.raises(InvalidInputError, match="restrict"):
            enumerate_sections(FiniteMap(2, 3, (0, 1)))

    @given(finite_maps(max_domain=4, max_codomain=4))
    def test_sections_are_right_inverses(self, q):
        q_onto = restrict_to_range(q)
        ident = FiniteMap.identity(q_onto.codomain_size)
        for s in enumerate_sections(q_onto):
            assert q_onto.after(s) == ident
            # s o q picks one representative per fiber, hence is idempotent
            sq = s.after(q_onto)
            assert sq.after(sq) == sq

    @given(finite_maps(max_domain=4, max_codomain=4))
    def test_restrict_to_range_surjective(self, q):
        q_onto = restrict_to_range(q)
        assert frozenset(q_onto.table) == frozenset(range(q_onto.codomain_size))


class TestKernelPartitionSweep:
    BELL = [1, 2, 5, 15, 52, 203, 877, 4140, 21147]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_restricted_growth_strings_are_the_bell_many_canonical_partitions(self, n):
        strings = list(restricted_growth_strings(n))
        assert len(strings) == self.BELL[n - 1]
        assert len(set(strings)) == len(strings)
        assert strings == sorted(strings)
        for a in strings:
            assert canonical_kernel(a) == a
            m = FiniteMap(n, max(a) + 1, a)
            assert restrict_to_range(m) == m

    @pytest.mark.parametrize("n", range(1, 6))
    def test_restricted_growth_strings_cover_every_kernel(self, n):
        kernels = {canonical_kernel(m.table) for m in all_maps(n, n)}
        assert kernels == set(restricted_growth_strings(n))

    def test_restricted_growth_strings_reject_empty_set(self):
        with pytest.raises(InvalidInputError):
            next(restricted_growth_strings(0))

    @given(relabelled_pairs())
    def test_verdicts_invariant_under_injective_relabelling(self, pair):
        # the lemma behind the partition sweep: only the kernels of P and q matter
        p, q, p2, q2 = pair
        assert theorem1_verdict(p) == theorem1_verdict(p2)
        assert theorem1_verdict(q) == theorem1_verdict(q2)
        assert parameter_identifiable_standard(p, q) == parameter_identifiable_standard(p2, q2)
        assert parameter_identifiable_sections(p, restrict_to_range(q)) == (
            parameter_identifiable_sections(p2, restrict_to_range(q2))
        )


# brute-force oracle: the table-by-table sweep, at the largest bounds compared below
ORACLE_BOUNDS = {1: 4, 2: 4, 3: 4, 4: 4, 5: 3}


@pytest.fixture(scope="module")
def table_oracle():
    """(pairs, disagreements) per (domain d, codomain of P, codomain of q), table by table."""
    counts = {}
    for d, max_c in ORACLE_BOUNDS.items():
        tables = {c: list(all_maps(d, c)) for c in range(1, max_c + 1)}
        for cq, qs in tables.items():
            onto = [restrict_to_range(q) for q in qs]
            for cp, ps in tables.items():
                bad = sum(
                    parameter_identifiable_standard(p, q)
                    != parameter_identifiable_sections(p, q_onto)
                    for q, q_onto in zip(qs, onto)
                    for p in ps
                )
                counts[d, cp, cq] = (len(ps) * len(qs), bad)
    return counts


@pytest.mark.parametrize(
    "max_domain,max_codomain",
    [(d, c) for d in range(1, 5) for c in range(1, 5)] + [(5, 3)],
)
def test_partition_sweep_matches_table_oracle(table_oracle, max_domain, max_codomain):
    cells = [
        table_oracle[d, cp, cq]
        for d in range(1, max_domain + 1)
        for cp in range(1, max_codomain + 1)
        for cq in range(1, max_codomain + 1)
    ]
    expected = (sum(n for n, _ in cells), sum(bad for _, bad in cells))
    assert check_parameter_equivalence_theorem(max_domain, max_codomain) == expected


ALL_BOUNDS = [(d, c) for d in range(1, 6) for c in range(1, 6)]


@pytest.fixture(scope="module")
def theorem1_table_oracle():
    """(maps, counterexamples) per (domain d, codomain c), table by table."""
    counts = {}
    for d, c in ALL_BOUNDS:
        tables = list(all_maps(d, c))
        counts[d, c] = (len(tables), sum(theorem1_counterexample(p) for p in tables))
    return counts


@pytest.mark.parametrize("max_domain,max_codomain", ALL_BOUNDS)
def test_theorem1_sweep_matches_table_oracle(theorem1_table_oracle, max_domain, max_codomain):
    cells = [
        theorem1_table_oracle[d, c]
        for d in range(1, max_domain + 1)
        for c in range(1, max_codomain + 1)
    ]
    expected = (sum(n for n, _ in cells), sum(bad for _, bad in cells))
    assert check_fisher_consistency_theorem(max_domain, max_codomain) == expected


def test_theorem1_runs_the_estimator_once_per_kernel_class(monkeypatch):
    calls = []
    monkeypatch.setattr(
        "illposed.finite_maps.fisher_consistent_estimator",
        lambda p: calls.append(p) or fisher_consistent_estimator(p),
    )
    assert check_fisher_consistency_theorem(5, 5) == (5699, 0)
    # one call per set partition of each domain size: Bell(1) + ... + Bell(5)
    assert len(calls) == sum(TestKernelPartitionSweep.BELL[:5]) == 75
