"""Constructors: builders, distribution, triangular realization, pipelines."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from structura.errors import (
    FieldNotSplit,
    ImpossibleSquareCase,
    Infeasible,
    InternalInvariantError,
    MajorizationFails,
    NonMonicDiagonal,
    PreconditionViolated,
    SumMismatch,
)
from structura.qpoly import ONE, X, ZERO, Poly, coprime_basis
from structura.polymat import PolyMatrix, invariant_factors, is_minimal_basis, smith_form
from structura.extract import verify
from structura.feasibility import Prescription, check_feasibility, majorizes
from structura import polymat, synthesis
from structura.synthesis import (
    _atom_triangular,
    _bordered_exponents,
    _mobius_point,
    _pair_rule,
    build_dual_minimal_bases,
    build_minimal_basis,
    distribute_invariant_factors,
    realize_full,
    realize_rational,
    realize_span,
    shape_degrees,
    triangular_realization,
)
from conftest import (
    _check_sa_conditions,
    cofactor_det,
    max_minor_degree,
    per_member_distribute_invariant_factors,
    poly_smith_core,
    random_feasible_poly_prescription,
    rationalize_prescription,
    segmented_dual_minimal_bases,
)

S = X
M = PolyMatrix.from_scalar_rows


def lin(c) -> Poly:
    return Poly((-Fraction(c), 1))


CHAIN_ROOTS = (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3))


@hst.composite
def chains_and_targets(draw):
    """A divisibility chain over CHAIN_ROOTS with r <= 4, and target degrees
    that are majorized by its reversed degrees (Robin Hood moves from them,
    in any order) or drawn freely."""
    r = draw(hst.integers(1, 4))
    exps = [0] * len(CHAIN_ROOTS)
    chain = []
    for _ in range(r):
        exps = [e + draw(hst.integers(0, 1)) for e in exps]
        p = ONE
        for root, e in zip(CHAIN_ROOTS, exps):
            p = p * lin(root) ** e
        chain.append(p)
    if draw(hst.booleans()):
        w = sorted((int(a.degree) for a in chain), reverse=True)
        for i, j in draw(hst.lists(hst.tuples(hst.integers(0, r - 1),
                                              hst.integers(0, r - 1)), max_size=4)):
            if w[i] - w[j] >= 2:
                w[i] -= 1
                w[j] += 1
                w.sort(reverse=True)
        h = draw(hst.permutations(w))
    else:
        h = draw(hst.lists(hst.integers(-1, 8), min_size=r, max_size=r))
    return chain, list(h)


@hst.composite
def degree_list_pairs(draw):
    """Two lists of 0-5 degrees in 0..4, in any order; in half of the draws
    the second is raised or lowered, entry by entry, to the first's sum."""
    degrees = hst.lists(hst.integers(0, 4), max_size=5)
    dm, dn = draw(degrees), draw(degrees)
    if draw(hst.booleans()):
        gap = sum(dm) - sum(dn)
        for i, x in enumerate(dn):
            step = max(-x, min(4 - x, gap))
            dn[i] += step
            gap -= step
        while gap:  # every entry is 4 now, and sum(dm) <= 20 leaves room
            dn.append(min(4, gap))
            gap -= dn[-1]
    return dm, dn


def _outcome(fn, *args):
    """fn's result, or the type of what it raised."""
    try:
        return fn(*map(list, args))
    except Exception as exc:
        return type(exc)


def _split_chain(columns):
    """The chain whose member i is the product of (s - root)^e[i] over the
    (root, e) pairs of columns."""
    r = len(next(iter(columns.values())))
    return [math.prod((lin(rt) ** e[i] for rt, e in columns.items()), start=ONE)
            for i in range(r)]


# alpha = (1, ..., 1, s^48) with every quota 4: exactly one distribution
TWELVE_SLOTS = ([ONE] * 11 + [S ** 48], [4] * 12)
# r = 8 over nine rational roots, each with many majorized distributions
EIGHT_SLOTS_NINE_ROOTS = (
    _split_chain({
        -4: [1, 1, 2, 3, 4, 4, 4, 5], -3: [0, 0, 0, 0, 0, 1, 1, 1],
        -2: [1, 1, 2, 2, 2, 2, 2, 2], -1: [0, 0, 1, 1, 1, 1, 1, 1],
        1: [0, 0, 0, 0, 0, 0, 1, 2], 2: [1, 2, 2, 2, 2, 2, 2, 2],
        3: [0, 0, 0, 1, 2, 2, 3, 4], 4: [0, 0, 0, 0, 1, 1, 1, 1],
        5: [0, 0, 1, 1, 1, 1, 1, 1],
    }),
    [13, 9, 17, 7, 13, 5, 11, 12],
)


class TestBuildMinimalBasis:
    def test_bidiagonal(self):
        assert build_minimal_basis((2, 1), 3) == M([[S * S, 0], [1, S], [0, 1]])

    def test_square_identity(self):
        assert build_minimal_basis((0, 0), 2) == PolyMatrix.identity(2)

    def test_square_nonzero_degree_impossible(self):
        with pytest.raises(ImpossibleSquareCase):
            build_minimal_basis((1,), 1)

    def test_outputs_are_minimal(self):
        rng = random.Random(3)
        for _ in range(20):
            r = rng.randint(1, 4)
            amb = rng.randint(r, r + 3)
            degs = tuple(
                sorted((rng.randint(0, 3) for _ in range(r)), reverse=True)
            )
            if amb == r:
                degs = (0,) * r
            B = build_minimal_basis(degs, amb)
            flag, got = is_minimal_basis(B)
            assert flag and tuple(got) == degs


class TestDualBases:
    def test_one_one_versus_two(self):
        Mb, Nb = build_dual_minimal_bases((1, 1), (2,))
        assert Mb == M([[S, 0], [1, S], [0, 1]])
        assert Nb == M([[1], [-S], [S * S]])

    def test_all_zero(self):
        Mb, Nb = build_dual_minimal_bases((0, 0), (0, 0, 0))
        assert (Mb.transpose() @ Nb).is_zero
        assert Mb.m == 5 and Mb.n == 2 and Nb.n == 3

    def test_transposed_roles(self):
        Mb, Nb = build_dual_minimal_bases((2,), (1, 1))
        assert (Mb.transpose() @ Nb).is_zero
        assert is_minimal_basis(Mb) == (True, (2,))
        flag, degs = is_minimal_basis(Nb)
        assert flag and sorted(degs, reverse=True) == [1, 1]

    def test_sum_mismatch(self):
        with pytest.raises(SumMismatch):
            build_dual_minimal_bases((2, 1), (1, 1))

    def test_random_equal_sum_pairs(self):
        rng = random.Random(7)
        for _ in range(30):
            r = rng.randint(1, 6)
            q = rng.randint(1, 7 - r) if r < 7 else 1
            dm = tuple(sorted((rng.randint(0, 3) for _ in range(r)), reverse=True))
            total = sum(dm)
            # split the same total across q parts
            cuts = sorted(rng.randint(0, total) for _ in range(q - 1))
            dn = []
            prev = 0
            for c in cuts + [total]:
                dn.append(c - prev)
                prev = c
            dn = tuple(sorted(dn, reverse=True))
            Mb, Nb = build_dual_minimal_bases(dm, dn)
            assert (Mb.transpose() @ Nb).is_zero
            fm, gm = is_minimal_basis(Mb)
            fn, gn = is_minimal_basis(Nb)
            assert fm and fn
            assert sorted(gm, reverse=True) == list(dm)
            assert sorted(gn, reverse=True) == list(dn)

    @settings(max_examples=150, deadline=None)
    @given(degree_list_pairs())
    def test_both_bases_pass_the_smith_test(self, pair):
        # the builder certifies its output by Forney's test; the full
        # minimal-basis test (a Smith elimination each) must agree
        dm, dn = pair
        assume(sum(dm) == sum(dn))
        Mb, Nb = build_dual_minimal_bases(dm, dn)
        assert is_minimal_basis(Mb) == (True, Mb.column_degrees())
        assert is_minimal_basis(Nb) == (True, Nb.column_degrees())
        assert sorted(Mb.column_degrees()) == sorted(dm)
        assert sorted(Nb.column_degrees()) == sorted(dn)

    @settings(max_examples=300, deadline=None)
    @given(degree_list_pairs())
    @example(([1, 0, 2], [0, 3]))  # one block, zero columns on both sides
    @example(([2, 1, 1], [1, 2, 1]))  # blocks [0, 3] and [3, 4], rows 0-3 and 4-5
    @example(([1, 1], [2, 0, 1]))  # unequal sums
    def test_matches_segmented_oracle(self, pair):
        dm, dn = pair
        assert (_outcome(build_dual_minimal_bases, dm, dn)
                == _outcome(segmented_dual_minimal_bases, dm, dn))


class TestDistribute:
    def test_concentrated_square(self):
        delta = distribute_invariant_factors([ONE, S * S], [1, 1])
        assert delta == [S, S]

    def test_already_target_degrees(self):
        delta = distribute_invariant_factors([lin(1), lin(1)], [1, 1])
        assert delta == [lin(1), lin(1)]

    def test_two_roots_split(self):
        delta = distribute_invariant_factors([ONE, lin(1) * lin(2)], [1, 1])
        assert sorted(str(d) for d in delta) == ["s - 1", "s - 2"]
        _check_sa_conditions([ONE, lin(1) * lin(2)], delta)

    def test_moves_from_the_last_slot_over_quota(self):
        # the root 0 lays (2, 2, 0, 0) and the root 1 lays (1, 0, 0, 0) on
        # the quotas (2, 1, 1, 1): the first unit leaves slot 1, not slot 0
        chain = [ONE, ONE, S * S, S * S * lin(1)]
        assert distribute_invariant_factors(chain, [2, 1, 1, 1]) == [S * S, S, S, lin(1)]

    def test_field_not_split(self):
        with pytest.raises(FieldNotSplit):
            distribute_invariant_factors([ONE, Poly([1, 0, 2, 0, 1])], [1, 3])

    def test_majorization_gate(self):
        # totals mismatch
        with pytest.raises(MajorizationFails):
            distribute_invariant_factors([ONE, S * S * S], [2, 2])
        # prefix violation: (3, 0) exceeds the reversed degree prefix (2, ...)
        with pytest.raises(MajorizationFails):
            distribute_invariant_factors([S, S * lin(1)], [3, 0])
        # a genuinely majorized unbalanced split succeeds
        delta = distribute_invariant_factors([ONE, S * S * S], [1, 2])
        assert delta == [S, S * S]

    @settings(max_examples=150, deadline=None)
    @given(chains_and_targets())
    @example(TWELVE_SLOTS)
    @example(EIGHT_SLOTS_NINE_ROOTS)
    def test_matches_per_member_oracle(self, case):
        # the transfer rule needs no search, so it succeeds exactly when the
        # oracle's search over every majorized distribution does
        chain, h = case
        got = _outcome(distribute_invariant_factors, chain, h)
        want = _outcome(per_member_distribute_invariant_factors, chain, h)
        assert isinstance(got, list) == isinstance(want, list)
        if isinstance(got, list):
            assert [int(d.degree) for d in got] == h
            _check_sa_conditions(chain, got)
        else:
            assert got == want

    def test_splits_the_chain_end_once(self, monkeypatch):
        import structura.synthesis as synthesis

        seen = []
        split = synthesis.split_over_rationals
        monkeypatch.setattr(synthesis, "split_over_rationals",
                            lambda p: seen.append(p) or split(p))
        chain = [lin(1), lin(1) * S, lin(1) * S * S * lin(-2)]
        delta = distribute_invariant_factors(chain, [3, 2, 2])
        assert seen == [chain[-1]]
        assert delta == per_member_distribute_invariant_factors(chain, [3, 2, 2])

    def test_root_table(self):
        # one row per root of the chain end: delta and alpha exponents
        alpha = [ONE, lin(1) * lin(2), (lin(1) * lin(2)) ** 2]
        delta = distribute_invariant_factors(alpha, [2, 2, 2])
        assert delta == [lin(1) * lin(2)] * 3
        assert delta.table == [(Fraction(2), (1, 1, 1), (0, 1, 2)),
                               (Fraction(1), (1, 1, 1), (0, 1, 2))]

    def test_empty_chain(self):
        assert distribute_invariant_factors([], []) == []

    def test_member_degree_beyond_the_chain_end_roots(self):
        # s^2 + 1 has no root of s^2, so it does not divide it; root by
        # root the chain looks fine, only the degree sum catches it
        with pytest.raises(ValueError, match="divisibility chain"):
            distribute_invariant_factors([S * S + ONE, S * S], [2, 2])

    def test_random_conditions_always_hold(self):
        rng = random.Random(11)
        for _ in range(30):
            r = rng.randint(1, 4)
            chain = []
            prev = ONE
            for _ in range(r):
                extra = ONE
                for _ in range(rng.randint(0, 2)):
                    extra = extra * lin(rng.randint(-2, 2))
                prev = prev * extra
                chain.append(prev)
            degs = [int(a.degree) if not a.is_zero else 0 for a in chain]
            total = sum(degs)
            # random target degrees majorized by the reversed chain degrees
            w = sorted(degs, reverse=True)
            for _ in range(rng.randint(0, 4)):
                i = rng.randrange(r)
                j = rng.randrange(r)
                if i < j and w[i] > w[j] and (i == 0 or w[i - 1] > w[i] - 1):
                    # Robin Hood move keeps descending order and majorization
                    w2 = list(w)
                    w2[i] -= 1
                    w2[j] += 1
                    if all(w2[t] >= w2[t + 1] for t in range(r - 1)):
                        w = w2
            h = list(rng.sample(w, r))
            delta = distribute_invariant_factors(list(chain), h)
            assert [int(d.degree) for d in delta] == h
            _check_sa_conditions(list(chain), delta)


class TestTriangular:
    def test_rank_two_closed_form(self):
        E = triangular_realization([ONE, S * S], [S, S])
        assert E == M([[S, 1], [0, S]])
        assert smith_form(E).diag == (ONE, S * S)

    def test_diagonal_when_delta_equals_alpha(self):
        E = triangular_realization([S, S * (S - ONE)], [S, S * (S - ONE)])
        assert smith_form(E).diag == (S, S * (S - ONE))

    def test_mixed_roots_closed_form(self):
        alpha = [lin(1), lin(1) * lin(2) ** 2]
        delta = [lin(1) * lin(2), lin(1) * lin(2)]
        E = triangular_realization(alpha, delta)
        assert E[0, 0] == delta[0] and E[1, 1] == delta[1]
        assert E[0, 1] == lin(1)
        assert smith_form(E).diag == tuple(alpha)

    def test_three_by_three_single_atom(self):
        alpha = [ONE, ONE, S ** 3]
        delta = [S, S, S]
        E = triangular_realization(alpha, delta)
        assert tuple(E.rows[i][i] for i in range(3)) == (S, S, S)
        assert smith_form(E).diag == tuple(alpha)

    def test_three_by_three_two_atoms(self):
        alpha = [ONE, lin(1), (S ** 2) * lin(1) ** 2]
        delta = [S * lin(1), lin(1), S * lin(1)]
        E = triangular_realization(alpha, delta)
        assert tuple(E.rows[i][i] for i in range(3)) == tuple(delta)
        assert smith_form(E).diag == tuple(alpha)

    def test_non_split_atoms_supported(self):
        c = Poly([1, 0, 1])  # irreducible over Q
        alpha = [ONE, c * c]
        delta = [c, c]
        E = triangular_realization(alpha, delta)
        assert smith_form(E).diag == tuple(alpha)

    def test_precondition_violation(self):
        with pytest.raises(PreconditionViolated):
            triangular_realization([S, S], [S, S * S])

    def test_precondition_violation_names_the_atom(self):
        c = Poly([1, 0, 1])
        with pytest.raises(PreconditionViolated) as info:
            triangular_realization([c, c], [ONE, c * c])
        assert str(info.value) == (
            "at atom s^2 + 1, invariant exponents (1, 1) are not majorized "
            "by the diagonal exponents (0, 2)")

    def test_four_by_four_search(self):
        alpha = [ONE, S, S, S ** 3]
        delta = [S, S, S, S * S]
        E = triangular_realization(alpha, delta)
        assert tuple(E.rows[i][i] for i in range(4)) == tuple(delta)
        assert smith_form(E).diag == tuple(alpha)

    def test_root_table_where_the_gcd_free_basis_merges_roots(self):
        # the roots 1 and 2 always occur together, so the gcd-free basis has
        # the one atom (s - 1)(s - 2); the table keeps one atom per root
        alpha = [ONE, lin(1) * lin(2), (lin(1) * lin(2)) ** 2]
        delta = distribute_invariant_factors(alpha, [2, 2, 2])
        assert coprime_basis(alpha + delta) == [lin(1) * lin(2)]
        E = triangular_realization(alpha, delta, table=delta.table)
        assert E != triangular_realization(alpha, delta)
        assert tuple(E.rows[i][i] for i in range(3)) == tuple(delta)
        assert smith_form(E).diag == tuple(alpha)
        p = Prescription(variant="P2_span_indices", m=3, n=3, r=3, d=2,
                         alpha=tuple(alpha), f=(0, 0, 0), k=(0, 0, 0), l=(0, 0, 0))
        assert verify(realize_span(p), p).passed

    def test_certificate_refuses_a_table_with_swapped_exponents(self):
        alpha = [ONE, lin(1), lin(1) ** 2 * lin(2) ** 3]
        delta = [lin(1) * lin(2)] * 3
        table = [(Fraction(1), (1, 1, 1), (0, 1, 2)), (Fraction(2), (1, 1, 1), (0, 0, 3))]
        E = triangular_realization(alpha, delta, table=table)
        assert smith_form(E).diag == tuple(alpha)
        # both rows still pass the chain and majorization checks
        swapped = [(rt, x, m) for (rt, x, _), (_, _, m) in zip(table, table[::-1])]
        with pytest.raises(InternalInvariantError, match="wrong invariant factors"):
            triangular_realization(alpha, delta, table=swapped)

    def test_certificate_refuses_a_table_with_a_repeated_root(self):
        alpha = [ONE, ONE, S ** 2]
        delta = [ONE, S, S]
        table = [(Fraction(0), (0, 1, 0), (0, 0, 1)), (Fraction(0), (0, 0, 1), (0, 0, 1))]
        with pytest.raises(InternalInvariantError, match="pairwise coprime"):
            triangular_realization(alpha, delta, table=table)

    def test_certificate_refuses_atoms_that_share_a_factor(self, monkeypatch):
        # s(s - 1) divides nothing here, so the realization itself is right,
        # but the product certificate holds only over pairwise coprime atoms
        import structura.synthesis as synthesis

        basis = synthesis.coprime_basis
        monkeypatch.setattr(synthesis, "coprime_basis",
                            lambda polys: basis(polys) + [S * lin(1)])
        with pytest.raises(InternalInvariantError, match="pairwise coprime"):
            triangular_realization([ONE, ONE, S ** 3], [S, S, S])


BORDER_ATOMS = (S, lin(2), Poly([1, 0, 1]), Poly([1, 1, 1]))


@hst.composite
def bordered_cases(draw):
    """An atom, the ascending diagonal exponents beta (1-4 of them), a
    profile of the bordered column (None = zero entry) and the corner."""
    size = draw(hst.integers(1, 4))
    beta = tuple(sorted(draw(hst.lists(hst.integers(0, 3), min_size=size, max_size=size))))
    prof = tuple(draw(hst.lists(hst.none() | hst.integers(0, 4),
                                min_size=size, max_size=size)))
    return draw(hst.sampled_from(BORDER_ATOMS)), beta, prof, draw(hst.integers(0, 3))


class TestBorderedExponents:
    @settings(max_examples=200, deadline=None)
    @given(bordered_cases())
    @example((S, (0, 1, 1), (2, None, 0), 2))
    @example((Poly([1, 1, 1]), (0, 1, 2, 3), (None, 1, 0, 4), 0))
    def test_agrees_with_smith_elimination(self, case):
        atom, beta, prof, xr = case
        size = len(beta)
        rows = [[atom ** b if i == j else ZERO for j, b in enumerate(beta)]
                + [ZERO if prof[i] is None else atom ** prof[i]] for i in range(size)]
        N = PolyMatrix(rows + [[ZERO] * size + [atom ** xr]], n=size + 1)
        want = invariant_factors(N)
        assert tuple(atom ** e for e in _bordered_exponents(beta, prof, xr)) == want


# exponent columns at the atoms s, s - 1 and the non-split s^2 + 1
SA_ATOMS = (S, lin(1), Poly([1, 0, 1]))


@hst.composite
def completion_cases(draw):
    """alpha and delta over SA_ATOMS with r <= 4: per atom, ascending
    exponents m of alpha in 0..2 and exponents x of delta with the same
    total. Mostly x is a permutation of m evened out by moves of one from a
    larger to a smaller entry, which keeps the Sa-Thompson conditions; else
    x is any composition of the total."""
    r = draw(hst.integers(1, 4))
    feasible = draw(hst.integers(0, 3)) > 0
    alpha, delta = [ONE] * r, [ONE] * r
    for atom in SA_ATOMS:
        m = sorted(draw(hst.lists(hst.integers(0, 2), min_size=r, max_size=r)))
        if feasible:
            x = list(draw(hst.permutations(m)))
            for i, j in draw(hst.lists(hst.tuples(hst.integers(0, r - 1),
                                                  hst.integers(0, r - 1)), max_size=3)):
                if x[i] - x[j] >= 2:
                    x[i], x[j] = x[i] - 1, x[j] + 1
        else:
            cuts = sorted(draw(hst.lists(hst.integers(0, sum(m)),
                                         min_size=r - 1, max_size=r - 1)))
            x = [b - a for a, b in zip([0] + cuts, cuts + [sum(m)])]
        alpha = [a * atom ** e for a, e in zip(alpha, m)]
        delta = [d * atom ** e for d, e in zip(delta, x)]
    return alpha, delta


def _check_completion(alpha, delta):
    """triangular_realization of (alpha, delta) against the brute-force
    conditions of conftest._check_sa_conditions: where they hold, an upper
    triangular matrix with diagonal delta whose Smith form, by the Poly
    elimination of conftest.poly_smith_core, is alpha; else a
    PreconditionViolated."""
    try:
        _check_sa_conditions(alpha, delta)
    except PreconditionViolated:
        with pytest.raises(PreconditionViolated):
            triangular_realization(alpha, delta)
        return False
    E = triangular_realization(alpha, delta)
    r = len(alpha)
    assert all(E.rows[i][j].is_zero for i in range(r) for j in range(i))
    assert tuple(E.rows[i][i] for i in range(r)) == tuple(delta)
    assert poly_smith_core(E, False)[0] == tuple(alpha)
    return True


def _check_transforms(x, m, atom):
    """_atom_triangular's (T, R, V) has T V = R diag(atom^m), and R and V
    have nonzero constant determinants by cofactor expansion."""
    r = len(x)
    T, R, V = (PolyMatrix(A, n=r) for A in _atom_triangular(x, m, atom))
    D = PolyMatrix([[atom ** m[i] if i == j else ZERO for j in range(r)]
                    for i in range(r)], n=r)
    assert T @ V == R @ D, (x, m)
    for A in (R, V):
        det = cofactor_det(A.rows)
        assert not det.is_zero and det.degree == 0, (x, m)


class TestCompletionCertificate:
    # (1, 1, s^3, s^3) on the diagonal (s^2, s, s^2, s): borders at sizes 4
    # and 2, a zero border at size 3
    ALPHA = [ONE, ONE, S ** 3, S ** 3]
    DELTA = [S ** 2, S, S ** 2, S]

    def test_changed_border_is_refused(self, monkeypatch):
        # T V = R diag(s^m) is the only check that reads T's border: the
        # diagonal and the bordered exponents are unchanged
        real = synthesis._atom_triangular

        def changed(x, m, atom):
            T, R, V = real(x, m, atom)
            if len(x) == 3:
                T[0][2] = T[0][2] + ONE
            return T, R, V

        monkeypatch.setattr(synthesis, "_atom_triangular", changed)
        with pytest.raises(InternalInvariantError, match="not equivalent"):
            triangular_realization([ONE, S, S ** 2], [S, S, S])

    def test_runs_no_smith_elimination(self, monkeypatch):
        calls = []
        real = polymat._smith_core

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # a by-name import in synthesis would not see the polymat patch
        for module in (polymat, synthesis):
            monkeypatch.setattr(module, "_smith_core", counted, raising=False)
        E = triangular_realization(self.ALPHA, self.DELTA)
        assert calls == []
        monkeypatch.undo()
        assert tuple(E.rows[i][i] for i in range(4)) == tuple(self.DELTA)
        assert poly_smith_core(E, False)[0] == tuple(self.ALPHA)


class TestCompletionOracle:
    """The pair-rule completion against Smith elimination in Poly arithmetic."""

    @pytest.mark.parametrize("atom", [S, Poly([1, 0, 1])], ids=["s", "s^2+1"])
    def test_exhaustive_grid(self, atom):
        # r <= 4, ascending exponents m <= 3 of alpha and every exponent
        # tuple x of delta with the same total, in every order
        built = refused = 0
        for r in range(1, 5):
            for m in itertools.combinations_with_replacement(range(4), r):
                for x in itertools.product(range(4), repeat=r):
                    if sum(x) != sum(m):
                        continue
                    if _check_completion([atom ** e for e in m], [atom ** e for e in x]):
                        built += 1
                        _check_transforms(x, m, atom)
                    else:
                        refused += 1
        assert (built, refused) == (662, 490)

    @settings(max_examples=120, deadline=None)
    @given(completion_cases())
    @example(([ONE, lin(1), (S ** 2) * lin(1) ** 2], [S * lin(1), lin(1), S * lin(1)]))
    @example(([ONE, S, S, S ** 3], [S, S, S, S * S]))
    def test_completion_cases(self, case):
        _check_completion(*case)


class TestPairRule:
    def test_majorization_grid(self):
        # every ascending m <= 4 majorized by sorted(x), x in {0..4}^r, r <= 5:
        # beta is majorized by the rest of the diagonal, and the bordered
        # matrix has the invariant exponents m
        pairs = 0
        for r in range(2, 6):
            for m in itertools.combinations_with_replacement(range(5), r):
                for x in itertools.product(range(5), repeat=r):
                    if not majorizes(m, tuple(sorted(x))):
                        continue
                    beta, prof = _pair_rule(m, x[-1])
                    assert list(beta) == sorted(beta)
                    assert majorizes(beta, tuple(sorted(x[:-1]))), (m, x)
                    assert _bordered_exponents(beta, prof, x[-1]) == m, (m, x)
                    pairs += 1
        assert pairs == 15348

    @pytest.mark.parametrize("m, t, beta, prof", [
        ((0, 1, 3), 1, (0, 3), (None, None)),  # t in m: zero border
        ((0, 1, 3), 2, (0, 2), (None, 1)),  # 1 < 2 < 3: w = 2 at slot 1
        ((0, 0, 4), 3, (0, 1), (None, 0)),  # 0 < 3 < 4: w = 1 at slot 1
    ])
    def test_examples(self, m, t, beta, prof):
        assert _pair_rule(m, t) == (beta, prof)


@hst.composite
def sa_exponents(draw):
    """Per atom, ascending exponents m of alpha and exponents x of delta;
    x has the total of m, so both verdicts of the check are common."""
    r = draw(hst.integers(1, 5))
    cols = []
    for _ in SA_ATOMS:
        m = sorted(draw(hst.lists(hst.integers(0, 3), min_size=r, max_size=r)))
        cuts = sorted(draw(hst.lists(hst.integers(0, sum(m)),
                                     min_size=r - 1, max_size=r - 1)))
        x = [b - a for a, b in zip([0] + cuts, cuts + [sum(m)])]
        cols.append((m, x))
    return cols


class TestSaThompsonCheck:
    """The per-atom majorization in triangular_realization against the
    brute-force gcds of k-fold products in conftest._check_sa_conditions."""

    @settings(max_examples=150, deadline=None)
    @given(sa_exponents())
    @example([([1, 1], [0, 2]), ([0, 0], [0, 0]), ([0, 0], [0, 0])])  # rejected
    @example([([0, 2], [1, 1]), ([0, 0], [0, 0]), ([1, 1], [2, 0])])  # accepted
    @example([([0, 0, 3], [1, 1, 1]), ([0, 1, 1], [0, 2, 0]), ([1, 1, 1], [0, 0, 3])])
    def test_agrees_with_brute_force(self, cols):
        r = len(cols[0][0])
        alpha = [ONE] * r
        delta = [ONE] * r
        for atom, (m, x) in zip(SA_ATOMS, cols):
            alpha = [a * atom ** e for a, e in zip(alpha, m)]
            delta = [d * atom ** e for d, e in zip(delta, x)]
        try:
            _check_sa_conditions(alpha, delta)
            expected = True
        except PreconditionViolated:
            expected = False
        try:
            triangular_realization(alpha, delta)
            accepted = True
        except PreconditionViolated:
            accepted = False
        assert accepted == expected


class TestShapeDegrees:
    def test_already_shaped(self):
        E = M([[S, 1], [0, S]])
        assert shape_degrees(E, [1, 1]) == E

    def test_one_euclidean_step(self):
        assert shape_degrees(M([[S, S * S], [0, S]]), [1, 1]) == M(
            [[S, 0], [0, S]]
        )

    def test_remainder_kept(self):
        shaped = shape_degrees(M([[S, S + ONE], [0, S * S]]), [1, 2])
        assert shaped == M([[S, 1], [0, S * S]])
        assert smith_form(shaped).diag == smith_form(M([[S, S + ONE], [0, S * S]])).diag

    def test_non_monic_diagonal(self):
        with pytest.raises(NonMonicDiagonal):
            shape_degrees(M([[S.scale(2), 0], [0, S]]), [1, 1])

    def test_strict_degree_bounds_hold(self):
        rng = random.Random(13)
        for _ in range(15):
            r = rng.randint(2, 4)
            caps = [rng.randint(0, 3) for _ in range(r)]
            rows = []
            for i in range(r):
                row = [Poly()] * i
                row.append(Poly.monomial(1, caps[i]))
                for _ in range(i + 1, r):
                    row.append(
                        Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 5))])
                    )
                rows.append(row)
            Ep = PolyMatrix(rows, n=r)
            shaped = shape_degrees(Ep, caps)
            for i in range(r):
                assert shaped.rows[i][i] == Ep.rows[i][i]
                for j in range(i + 1, r):
                    assert shaped.rows[i][j].degree < caps[i]
            assert smith_form(shaped).diag == smith_form(Ep).diag


class TestRealizeSpanZeroInf:
    def test_square_case_is_shaped_triangular(self):
        p = Prescription(
            variant="P2_span_indices",
            m=2,
            n=2,
            r=2,
            d=1,
            alpha=(S, S),
            f=(0, 0),
            k=(0, 0),
            l=(0, 0),
        )
        A = realize_span(p)
        assert verify(A, p).passed

    def test_degree_matching_case(self):
        p = Prescription(
            variant="P2_span_indices",
            m=3,
            n=3,
            r=2,
            d=1,
            alpha=(ONE, ONE),
            f=(0, 0),
            k=(1, 0),
            l=(1, 0),
        )
        A = realize_span(p)
        assert verify(A, p).passed

    def test_builder_bases_spans_case(self):
        p = Prescription(
            variant="P1_spans",
            m=3,
            n=3,
            r=2,
            d=1,
            alpha=(ONE, ONE),
            f=(0, 0),
            K=build_minimal_basis((1, 0), 3),
            Lt=build_minimal_basis((1, 0), 3),
        )
        A = realize_span(p)
        rep = verify(A, p)
        assert rep.passed, rep.mismatches

    def test_infeasible_rejected_before_construction(self):
        p = Prescription(
            variant="P2_span_indices",
            m=3,
            n=3,
            r=2,
            d=7,
            alpha=(ONE, Poly([1, 0, 2, 0, 1])),
            f=(0, 0),
            k=(5, 0),
            l=(4, 2),  # breaks the majorization totals
        )
        with pytest.raises(Infeasible):
            realize_span(p)

    def test_middle_factor_has_maximal_minor_degrees(self):
        # the shaped middle factor scaled by the index monomials reaches
        # degree k*d on every minor order
        from structura.synthesis import _realize_zero_inf

        alpha = (ONE, lin(1) * lin(2))
        d = 2
        k = (1, 0)
        l = (1, 0)
        h = [d - (k[1 - i] + l[i]) for i in range(2)]
        delta = distribute_invariant_factors(list(alpha), h)
        E = shape_degrees(triangular_realization(list(alpha), delta), h)
        F = (
            M([[S ** k[1], 0], [0, S ** k[0]]])
            @ E
            @ M([[S ** l[0], 0], [0, S ** l[1]]])
        )
        assert int(F.degree) == d
        for kk in (1, 2):
            assert max_minor_degree(F, kk) == kk * d


class TestRealizeSpan:
    def test_mobius_point(self):
        assert _mobius_point(S * lin(1)) == 2
        assert _mobius_point(ONE) == 0

    def test_mobius_lift_full_rank(self):
        p = Prescription(
            variant="P2_span_indices",
            m=2,
            n=2,
            r=2,
            d=2,
            alpha=(ONE, lin(1)),
            f=(0, 3),
            k=(0, 0),
            l=(0, 0),
        )
        A = realize_span(p)
        assert verify(A, p).passed

    def test_mobius_lift_singular(self):
        p = Prescription(
            variant="P2_span_indices",
            m=3,
            n=2,
            r=2,
            d=1,
            alpha=(ONE, ONE),
            f=(0, 1),
            k=(1, 0),
            l=(0, 0),
        )
        assert check_feasibility(p).feasible
        A = realize_span(p)
        assert verify(A, p).passed

    def test_worked_example_not_split_over_q(self):
        p = Prescription(
            variant="P2_span_indices",
            m=3,
            n=3,
            r=2,
            d=7,
            alpha=(ONE, Poly([1, 0, 2, 0, 1])),
            f=(0, 0),
            k=(5, 0),
            l=(4, 1),
        )
        with pytest.raises(FieldNotSplit):
            realize_span(p)

    def test_spans_variant_uses_the_supplied_bases(self):
        rng = random.Random(77)
        for _ in range(5):
            p = random_feasible_poly_prescription(rng, "P1_spans")
            A = realize_span(p)
            rep = verify(A, p)
            assert rep.passed, rep.mismatches

    def test_high_infinite_multiplicity_regression(self):
        # once triggered exponential coefficient growth during the
        # re-extraction of the lifted matrix; must stay fast
        import time

        p = Prescription(
            variant="P2_span_indices",
            m=5,
            n=3,
            r=3,
            d=5,
            alpha=(ONE, ONE, (S ** 2) * (S - ONE)),
            f=(0, 1, 8),
            k=(2, 1, 0),
            l=(0, 0, 0),
        )
        assert check_feasibility(p).feasible
        t0 = time.monotonic()
        A = realize_span(p)
        rep = verify(A, p)
        assert rep.passed, rep.mismatches
        assert time.monotonic() - t0 < 10


class TestRealizeFull:
    def test_square_reduces_to_span_problem(self):
        p = Prescription(
            variant="P3_full",
            m=2,
            n=2,
            r=2,
            d=1,
            alpha=(ONE, S * S),
            f=(0, 0),
            k=(0, 0),
            l=(0, 0),
            right=(),
            left=(),
        )
        A = realize_full(p)
        assert verify(A, p).passed

    def test_singular_with_all_six_lists(self):
        p = Prescription(
            variant="P3_full",
            m=3,
            n=3,
            r=2,
            d=1,
            alpha=(ONE, ONE),
            f=(0, 0),
            k=(1, 0),
            l=(1, 0),
            right=(1,),
            left=(1,),
        )
        A = realize_full(p)
        assert verify(A, p).passed

    def test_dual_sum_gate(self):
        p = Prescription(
            variant="P3_full",
            m=3,
            n=3,
            r=2,
            d=1,
            alpha=(ONE, ONE),
            f=(0, 0),
            k=(1, 0),
            l=(1, 0),
            right=(1,),
            left=(0,),
        )
        with pytest.raises(Infeasible):
            realize_full(p)


class TestRealizeRational:
    def test_trivial_denominators(self):
        p = Prescription(
            variant="R2_span_indices",
            m=2,
            n=2,
            r=2,
            epsilon=(ONE, S),
            psi=(ONE, ONE),
            q=(-1, 0),
            k=(0, 0),
            l=(0, 0),
        )
        R = realize_rational(p)
        assert all(e.is_polynomial for row in R.rows for e in row)
        assert verify(R, p).passed

    def test_scalar_pole(self):
        p = Prescription(
            variant="R2_span_indices",
            m=1,
            n=1,
            r=1,
            epsilon=(ONE,),
            psi=(S,),
            q=(1,),
            k=(0,),
            l=(0,),
        )
        R = realize_rational(p)
        assert verify(R, p).passed
        entry = R[0, 0]
        assert entry.den == S and entry.num.degree == 0

    def test_dual_sum_gate(self):
        p = Prescription(
            variant="R3_full",
            m=2,
            n=3,
            r=2,
            epsilon=(ONE, ONE),
            psi=(ONE, ONE),
            q=(-1, -1),
            k=(0, 0),
            l=(1, 0),
            right=(0,),
            left=(),
        )
        with pytest.raises(Infeasible):
            realize_rational(p)

    def test_random_round_trips(self):
        rng = random.Random(91)
        done = 0
        while done < 6:
            base = random_feasible_poly_prescription(
                rng, rng.choice(["P2_span_indices", "P3_full"]), max_r=2, max_mn=4
            )
            p = rationalize_prescription(rng, base)
            if not check_feasibility(p).feasible:
                continue
            R = realize_rational(p)
            rep = verify(R, p)
            assert rep.passed, rep.mismatches
            done += 1


class TestCensusSlice:
    """Every P2_span_indices prescription of a small grid that check
    accepts gets built and verified (ROADMAP item 6): r = 3, (m, n) in
    {(3, 3), (3, 4), (4, 3)}, d <= 3, the 40 length-3 divisibility chains
    over the divisors of s^2 (s - 1), f ascending <= 2 with f_1 = 0, and
    k, l descending <= 2; where m = r (n = r), k (l) is (0, 0, 0) or
    (1, 0, 0), which eqy>0 (eqx>0) refuses."""

    def test_accepted_prescriptions_verify(self):
        divisors = [S ** a * lin(1) ** b for a in range(3) for b in range(2)]
        chains = [c for c in itertools.product(divisors, repeat=3)
                  if (c[1] % c[0]).is_zero and (c[2] % c[1]).is_zero]
        fs = [f for f in itertools.product(range(3), repeat=3)
              if f[0] == 0 and list(f) == sorted(f)]
        falling = [k for k in itertools.product(range(3), repeat=3)
                   if list(k) == sorted(k, reverse=True)]
        total = accepted = 0
        for m, n in ((3, 3), (3, 4), (4, 3)):
            ks = falling if m > 3 else [(0, 0, 0), (1, 0, 0)]
            ls = falling if n > 3 else [(0, 0, 0), (1, 0, 0)]
            for d, alpha, f, k, l in itertools.product(range(4), chains, fs, ks, ls):
                p = Prescription(variant="P2_span_indices", m=m, n=n, r=3, d=d,
                                 alpha=alpha, f=f, k=k, l=l)
                total += 1
                if check_feasibility(p).feasible:
                    accepted += 1
                    assert verify(realize_span(p), p).passed, p
        assert (len(chains), total, accepted) == (40, 42240, 1039)
