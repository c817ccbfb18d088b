"""Structure extraction: invariant factors, infinite structure, subspaces."""

import dataclasses
import functools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from structura.errors import (
    ImpossibleSquareCase,
    InternalInvariantError,
    MalformedPrescription,
    RankDeficient,
    ShapeMismatch,
    ZeroMatrix,
)
from structura.qpoly import ONE, ZERO, X, Poly, RatFn
from structura import extract, polymat
from structura.polymat import (
    PolyMatrix,
    _integer_columns,
    _integer_lines,
    _left_inverse_columns,
    _normalize_basis,
    _smith_core,
    _weak_basis,
    is_minimal_basis,
    rank,
    reversal,
)
from structura.extract import (
    PolyStructuralData,
    RationalMatrix,
    RatStructuralData,
    _SubspaceData,
    clear_denominators,
    extract_poly_structure,
    extract_rational_structure,
    inf_structure,
    partial_multiplicities,
    spans_equal,
    verify,
)
from structura.feasibility import Prescription, check_feasibility
from structura.synthesis import build_minimal_basis, realize_full, realize_rational, realize_span
from conftest import (
    fieldwise_verify,
    poly_normalize_basis,
    random_feasible_poly_prescription,
    random_low_rank_matrix,
    random_matrix,
    random_rational_matrix,
    random_split_monic,
    random_unimodular,
    rationalize_prescription,
    smith_partial_multiplicities,
)

S = X
M = PolyMatrix.from_scalar_rows


class TestPartialMultiplicities:
    def test_diagonal(self):
        assert partial_multiplicities(M([[1, 0], [0, S * S]]), 0) == (0, 2)

    def test_identity_everywhere_zero(self):
        for lam in (0, 1, -3, Fraction(1, 2)):
            assert partial_multiplicities(PolyMatrix.identity(3), lam) == (0, 0, 0)

    def test_jordan_block(self):
        assert partial_multiplicities(M([[S, 1], [0, S]]), 0) == (0, 2)

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            partial_multiplicities(PolyMatrix.zeros(2, 2), 0)


@hst.composite
def local_structure_cases(draw):
    """(P, lam): P is m x n with 1 <= m, n <= 4 and degree <= 2, either dense
    with rational coefficients or the product of an m x r and an r x n
    factor of degree <= 1 (rank r or less). Constant terms vanish often, and
    P is drawn around 0 and moved to lam, so the invariant factors often
    have lam as a root."""
    lam = draw(hst.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)]))
    m, n = draw(hst.integers(1, 4)), draw(hst.integers(1, 4))
    coeff = hst.one_of(
        hst.just(Fraction(0)),
        hst.builds(Fraction, hst.integers(-3, 3), hst.sampled_from([1, 1, 2, 3])),
    )

    def block(rows, cols, deg):
        return PolyMatrix(
            [[Poly(draw(hst.lists(coeff, max_size=deg + 1))) for _ in range(cols)]
             for _ in range(rows)],
            n=cols,
        )

    if draw(hst.booleans()):
        P = block(m, n, 2)
    else:
        r = draw(hst.integers(1, min(m, n)))
        P = block(m, r, 1) @ block(r, n, 1)
    assume(not P.is_zero)
    return P.map_entries(lambda e: e.shift(-lam)), lam


@hst.composite
def high_multiplicity_cases(draw):
    """(P, lam, f): P = U @ D @ V, m x n with 1 <= m, n <= 4, U and V
    unimodular, D diagonal with r entries (s - lam)^f_i * g_i, where g_i is
    1 or s - lam - 1, and zeros after them. The largest f_i is 4 to 6, so
    the running Toeplitz elimination reaches T_5 to T_7."""
    lam = draw(hst.sampled_from([Fraction(0), Fraction(2), Fraction(-1, 2)]))
    m, n = draw(hst.integers(1, 4)), draw(hst.integers(1, 4))
    r = draw(hst.integers(1, min(m, n)))
    f = draw(hst.lists(hst.integers(0, 6), min_size=r - 1, max_size=r - 1))
    f.insert(draw(hst.integers(0, r - 1)), draw(hst.integers(4, 6)))
    at, off = Poly((-lam, 1)), Poly((-lam - 1, 1))
    rows = [[ZERO] * n for _ in range(m)]
    for i, fi in enumerate(f):
        rows[i][i] = at ** fi * (off if draw(hst.booleans()) else ONE)
    rng = random.Random(draw(hst.integers(0, 2 ** 16)))
    P = random_unimodular(rng, m) @ PolyMatrix(rows, n=n) @ random_unimodular(rng, n)
    return P, lam, tuple(sorted(f))


class TestLocalStructureOracle:
    """The Toeplitz-rank multiplicities against the valuation of each Smith
    invariant factor at the point (tests/conftest.py)."""

    @settings(max_examples=300, deadline=None)
    @given(local_structure_cases())
    def test_partial_multiplicities(self, case):
        P, lam = case
        assert partial_multiplicities(P, lam) == smith_partial_multiplicities(P, lam)

    @settings(max_examples=100, deadline=None)
    @given(high_multiplicity_cases())
    def test_partial_multiplicities_up_to_six(self, case):
        P, lam, f = case
        assert partial_multiplicities(P, lam) == smith_partial_multiplicities(P, lam) == f

    @settings(max_examples=300, deadline=None)
    @given(local_structure_cases())
    def test_inf_structure(self, case):
        P, _ = case
        d = int(P.degree)
        f = smith_partial_multiplicities(reversal(P), 0)
        assert inf_structure(P) == (d, f, tuple(fi - d for fi in f))

    def test_extraction_reads_the_same_infinite_structure(self):
        rng = random.Random(83)
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            P = random_matrix(rng, m, n, 2)
            data = extract_poly_structure(P)
            assert data.inf_partial_mults == smith_partial_multiplicities(reversal(P), 0)


class TestInfStructure:
    def test_jordan_block(self):
        assert inf_structure(M([[S, 1], [0, S]])) == (1, (0, 0), (-1, -1))

    def test_diag_one_s(self):
        assert inf_structure(M([[1, 0], [0, S]])) == (1, (0, 1), (-1, 0))

    def test_constant(self):
        assert inf_structure(M([[2, 1], [1, 1]])) == (0, (0, 0), (0, 0))


class TestSubspaces:
    def test_identity_colspan(self):
        d = extract_poly_structure(PolyMatrix.identity(3))
        assert d.colspan_basis == PolyMatrix.identity(3)
        assert d.colspan_indices == (0, 0, 0)

    def test_rank_one_colspan(self):
        d = extract_poly_structure(M([[S, S * S], [1, S]]))
        assert d.colspan_indices == (1,)
        assert d.colspan_basis == M([[S], [1]])

    def test_rank_one_rightnull(self):
        d = extract_poly_structure(M([[S, S * S], [1, S]]))
        assert d.right_indices == (1,)
        assert d.right_null_basis == M([[S], [-1]])

    def test_bases_span_and_annihilate(self):
        rng = random.Random(17)
        for _ in range(20):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            P = (
                random_low_rank_matrix(rng, m, n, rng.randint(1, min(m, n)))
                if rng.random() < 0.5
                else random_matrix(rng, m, n, 2)
            )
            if P.is_zero:
                continue
            r = rank(P)
            d = extract_poly_structure(P)
            col, row = d.colspan_basis, d.rowspan_basis
            rn, ln = d.right_null_basis, d.left_null_basis
            for B in (col, row, rn, ln):
                assert is_minimal_basis(B)[0]
            # null bases annihilate exactly
            assert (P @ rn).is_zero
            assert (ln.transpose() @ P).is_zero
            # span bases do not enlarge the subspace
            assert rank(PolyMatrix.hstack(col, P)) == r
            assert rank(PolyMatrix.hstack(row, P.transpose())) == r


class TestExtractPoly:
    def test_identity(self):
        d = extract_poly_structure(PolyMatrix.identity(2))
        assert (d.rank, d.degree) == (2, 0)
        assert d.invariant_factors == (ONE, ONE)
        assert d.inf_partial_mults == (0, 0)
        assert d.colspan_indices == (0, 0) and d.rowspan_indices == (0, 0)
        assert d.right_indices == () and d.left_indices == ()

    def test_jordan_block(self):
        d = extract_poly_structure(M([[S, 1], [0, S]]))
        assert (d.rank, d.degree) == (2, 1)
        assert d.invariant_factors == (ONE, S * S)
        assert d.inf_partial_mults == (0, 0)
        assert d.colspan_indices == (0, 0) and d.rowspan_indices == (0, 0)

    def test_rank_one(self):
        d = extract_poly_structure(M([[S, S * S], [1, S]]))
        assert (d.rank, d.degree) == (1, 2)
        assert d.invariant_factors == (ONE,)
        assert d.inf_partial_mults == (0,)
        assert d.colspan_indices == (1,)
        assert d.rowspan_indices == (1,)
        assert d.right_indices == (1,)
        assert d.left_indices == (1,)

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            extract_poly_structure(PolyMatrix.zeros(1, 1))

    def test_full_column_rank_means_zero_rowspan_indices(self):
        rng = random.Random(19)
        done = 0
        while done < 10:
            P = random_matrix(rng, 4, rng.randint(1, 3), 2)
            if rank(P) < P.n:
                continue
            d = extract_poly_structure(P)
            assert d.rowspan_indices == (0,) * P.n
            done += 1

    def test_full_row_rank_means_zero_colspan_indices(self):
        rng = random.Random(21)
        done = 0
        while done < 10:
            P = random_matrix(rng, rng.randint(1, 3), 4, 2)
            if rank(P) < P.m:
                continue
            d = extract_poly_structure(P)
            assert d.colspan_indices == (0,) * P.m
            done += 1

    def test_recovers_planted_invariant_factors(self):
        rng = random.Random(101)
        for _ in range(15):
            r = rng.randint(1, 3)
            m = rng.randint(r, 4)
            n = rng.randint(r, 4)
            chain = []
            prev = ONE
            for _ in range(r):
                prev = prev * random_split_monic(rng, rng.randint(0, 1))
                chain.append(prev)
            Smat = [[Poly()] * n for _ in range(m)]
            for i, a in enumerate(chain):
                Smat[i][i] = a
            P = (
                random_unimodular(rng, m, ops=3)
                @ PolyMatrix(Smat, n=n)
                @ random_unimodular(rng, n, ops=3)
            )
            d = extract_poly_structure(P)
            assert d.invariant_factors == tuple(chain)

    @pytest.mark.parametrize(
        "P, alpha, bases",
        [
            (  # 3x4 of rank 2: the third row is the sum of the first two.
               # Checked by hand: the column space is {v : v3 = v1 + v2}, whose
               # constant basis with monic pivots in the last nonzero rows
               # 1 and 2 and zeros beside them is (-1, 1, 0), (1, 0, 1); the
               # right null columns (s, 0, -1, 0) and (-1, s, 0, 1) solve
               # P x = 0, have monic pivots s in rows 0 and 1, and the -1
               # beside the first pivot is of lower degree
                M([[S, 1, S * S, 0], [1, 0, S, 1], [S + ONE, 1, S * S + S, 1]]),
                (ONE, ONE),
                (
                    ((0, 0), M([[-1, 1], [1, 0], [0, 1]])),
                    ((1, 1), M([[1, 0], [0, -1], [S, 0], [1, S]])),
                    ((1, 1), M([[S, -1], [0, S], [-1, 0], [0, 1]])),
                    ((0,), M([[-1], [-1], [1]])),
                ),
            ),
            (  # full row rank, invariant factors (s, s)
                M([[S, S * S, 0], [S, 0, S * S - S]]),
                (S, S),
                (
                    ((0, 0), M([[1, 0], [0, 1]])),
                    ((1, 1), M([[1, 1], [S, 0], [0, S - ONE]])),
                    ((2,), M([[S * S - S], [ONE - S], [-S]])),
                    ((), PolyMatrix.zeros(2, 0)),
                ),
            ),
            (  # 3x2 of rank 1 with invariant factor s
                M([[S, S * S], [S * S, S * S * S], [0, 0]]),
                (S,),
                (
                    ((1,), M([[1], [S], [0]])),
                    ((1,), M([[1], [S]])),
                    ((1,), M([[S], [-1]])),
                    ((1, 0), M([[S, 0], [-1, 0], [0, 1]])),
                ),
            ),
            (  # rational coefficients; the two row-span columns of degree 1
               # have their pivots in rows 0 and 2
                M([[S * S, Fraction(1, 2), S], [S, 1, Poly([0, Fraction(2, 3)])]]),
                (ONE, S),
                (
                    ((0, 0), M([[1, 0], [0, 1]])),
                    ((1, 1), M([[Poly([Fraction(-1, 2), 1]), Fraction(3, 4)],
                                [0, Fraction(3, 2)],
                                [Fraction(2, 3), Poly([-1, 1])]])),
                    ((2,), M([[1], [Poly([0, Fraction(-3, 2), 1])],
                              [Poly([Fraction(3, 4), Fraction(-3, 2)])]])),
                    ((), PolyMatrix.zeros(2, 0)),
                ),
            ),
        ],
        ids=["rank-deficient", "nontrivial-factors", "rank-one-factor-s",
             "rational-coefficients"],
    )
    def test_pinned_bases(self, P, alpha, bases):
        d = extract_poly_structure(P)
        assert d.invariant_factors == alpha
        assert (
            (d.colspan_indices, d.colspan_basis),
            (d.rowspan_indices, d.rowspan_basis),
            (d.right_indices, d.right_null_basis),
            (d.left_indices, d.left_null_basis),
        ) == bases

    def test_identities_hold_on_random_matrices(self):
        rng = random.Random(23)
        for _ in range(30):
            P = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 2)
            d = extract_poly_structure(P)  # identities asserted internally
            assert d.inf_partial_mults[0] == 0


@hst.composite
def bases_to_normalize(draw):
    """m x n matrices, 1 <= n <= m <= 5 and n <= 4, with coefficients a/b,
    |a| <= 3 and b <= 4, in one of four kinds: dense; dense times a unimodular factor,
    which raises the column degrees; with a zero column; or s^k times a
    constant matrix with a nonzero first row, possibly times a unimodular
    factor, whose reduced columns often tie on (degree, first nonzero row)."""
    m = draw(hst.integers(1, 5))
    n = draw(hst.integers(1, min(m, 4)))
    kind = draw(hst.sampled_from(["dense", "unimodular", "zero-column", "ties"]))
    coeff = hst.fractions(min_value=-3, max_value=3, max_denominator=4)
    if kind == "ties":
        rows = [[Poly([draw(coeff.filter(bool) if i == 0 else coeff)]) for _ in range(n)]
                for i in range(m)]
        B = PolyMatrix(rows, n=n).scale(S ** draw(hst.integers(0, 2)))
    else:
        entry = hst.lists(coeff, max_size=3).map(Poly)
        B = PolyMatrix([[draw(entry) for _ in range(n)] for _ in range(m)], n=n)
    if kind == "zero-column":
        j = draw(hst.integers(0, n - 1))
        B = PolyMatrix([[ZERO if k == j else e for k, e in enumerate(row)] for row in B.rows],
                       n=n)
    if kind in ("unimodular", "ties") and draw(hst.booleans()):
        B = B @ random_unimodular(random.Random(draw(hst.integers(0, 2 ** 16))), n, ops=3)
    return B


def assert_column_popov(B: PolyMatrix, indices):
    """B is in column Popov form with column degrees indices: the pivot of
    each column (its last entry of top degree) is monic and in a row of its
    own, where every other entry has lower degree, and the columns run by
    degree descending, then by pivot row."""
    keys = []
    for j in range(B.n):
        col = B.col(j)
        d = max(e.degree for e in col)
        p = max(i for i, e in enumerate(col) if e.degree == d)
        assert col[p].lc == 1
        assert all(B.rows[p][k].degree < d for k in range(B.n) if k != j)
        keys.append((-d, p))
    assert len({p for _, p in keys}) == B.n
    assert keys == sorted(keys)
    assert tuple(-d for d, _ in keys) == indices


def popov_basis(cols, m: int) -> tuple:
    """(basis, indices): the column Popov form of integer columns, through
    their weak Popov form, and its degrees."""
    weak, indices = _weak_basis(cols)
    return _normalize_basis(weak, m), indices


class TestNormalizeBasis:
    @settings(max_examples=200, deadline=None)
    @given(bases_to_normalize())
    def test_matches_poly_oracle(self, B):
        # a Popov form of the same span, with the degrees of the Wolovich
        # reduction in Poly arithmetic (another reduced basis); a
        # rank-deficient basis raises in both
        try:
            _, want = poly_normalize_basis(B)
        except RankDeficient:
            with pytest.raises(RankDeficient):
                popov_basis(_integer_columns(B)[0], B.m)
            return
        basis, indices = popov_basis(_integer_columns(B)[0], B.m)
        assert indices == want
        assert_column_popov(basis, indices)
        assert rank(PolyMatrix.hstack(B, basis)) == B.n

    @settings(max_examples=200, deadline=None)
    @given(bases_to_normalize(), hst.integers(0, 2 ** 16))
    def test_unchanged_by_a_unimodular_factor(self, B, seed):
        # the Popov form is unique per module, whichever basis reaches it
        BU = B @ random_unimodular(random.Random(seed), B.n, ops=4)
        try:
            want = popov_basis(_integer_columns(B)[0], B.m)
        except RankDeficient:
            with pytest.raises(RankDeficient):
                popov_basis(_integer_columns(BU)[0], B.m)
            return
        assert popov_basis(_integer_columns(BU)[0], B.m) == want


def _canonical_cases(seed: int, count: int):
    """(P, L, R): nonzero matrices up to 4x4, low-rank, dense or with
    rational coefficients, with unimodular L and R of matching sizes."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        kind = rng.randrange(3)
        if kind == 0:
            P = random_low_rank_matrix(rng, m, n, rng.randint(1, min(m, n)))
        elif kind == 1:
            P = random_matrix(rng, m, n, 2)
        else:
            P = random_rational_matrix(rng, m, n, 2)
        if not P.is_zero:
            out.append((P, random_unimodular(rng, m, ops=4), random_unimodular(rng, n, ops=4)))
    return out


class TestCanonicalBases:
    def test_right_factor_keeps_the_column_space_and_left_null_bases(self):
        for P, _, R in _canonical_cases(1801, 30):
            a, b = extract_poly_structure(P), extract_poly_structure(P @ R)
            assert (a.colspan_indices, a.colspan_basis) == (b.colspan_indices, b.colspan_basis)
            assert (a.left_indices, a.left_null_basis) == (b.left_indices, b.left_null_basis)

    def test_left_factor_keeps_the_row_space_and_right_null_bases(self):
        for P, L, _ in _canonical_cases(1802, 30):
            a, b = extract_poly_structure(P), extract_poly_structure(L @ P)
            assert (a.rowspan_indices, a.rowspan_basis) == (b.rowspan_indices, b.rowspan_basis)
            assert (a.right_indices, a.right_null_basis) == (b.right_indices, b.right_null_basis)

    def test_general_path_gives_the_identity_for_full_rank_spans(self):
        # extraction takes I for a span of rank m or n; the Popov form of the
        # left^-1 columns that it skips is exactly that
        seen = [0, 0]
        for P, _, _ in _canonical_cases(1803, 40):
            diag, U, Vt = _smith_core(P, track=True)
            r = len(diag)
            if r == P.m:
                got = popov_basis(
                    _left_inverse_columns(_integer_lines(P.rows), Vt, diag)[0], P.m)
                assert got == (PolyMatrix.identity(r), (0,) * r)
                seen[0] += 1
            if r == P.n:
                got = popov_basis(
                    _left_inverse_columns(_integer_columns(P), U, diag)[0], P.n)
                assert got == (PolyMatrix.identity(r), (0,) * r)
                seen[1] += 1
        assert min(seen) >= 10


    def test_square_nonsingular_input_tracks_no_transformers(self, monkeypatch):
        # both spans are I and both null bases empty, so only the diagonal
        # is eliminated; a singular square input still tracks them
        tracked = []
        real = polymat._smith_core

        def counted(P, track):
            tracked.append(track)
            return real(P, track)

        monkeypatch.setattr(polymat, "_smith_core", counted)
        data = extract_poly_structure(M([[S, 1], [0, S * S - ONE]]))
        assert tracked == [False]
        assert data.invariant_factors == (ONE, S ** 3 - S)
        assert data.colspan_basis == data.rowspan_basis == PolyMatrix.identity(2)
        assert data.right_null_basis == data.left_null_basis == PolyMatrix.zeros(2, 0)
        extract_poly_structure(M([[S, S], [1, 1]]))
        assert tracked == [False, True]


class TestRationalLayer:
    def test_clear_single_entry(self):
        psi1, P = clear_denominators(RationalMatrix([[RatFn(ONE, S)]]))
        assert psi1 == S and P == M([[1]])

    def test_clear_mixed(self):
        R = RationalMatrix(
            [
                [RatFn(ONE, S), RatFn(ONE)],
                [RatFn(Poly()), RatFn(ONE, S - ONE)],
            ]
        )
        psi1, P = clear_denominators(R)
        assert psi1 == S * (S - ONE)
        assert P == M([[S - ONE, S * (S - ONE)], [0, S]])

    def test_clear_polynomial_input(self):
        R = RationalMatrix([[RatFn(S + ONE), RatFn(S)]])
        psi1, P = clear_denominators(R)
        assert psi1 == ONE and P == M([[S + ONE, S]])

    def test_extract_one_over_s(self):
        d = extract_rational_structure(RationalMatrix([[RatFn(ONE, S)]]))
        assert d.numerators == (ONE,)
        assert d.denominators == (S,)
        assert d.inf_orders == (1,)
        assert d.colspan_indices == (0,) and d.rowspan_indices == (0,)

    def test_polynomial_consistency(self):
        rng = random.Random(29)
        for _ in range(10):
            P = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 2)
            dp = extract_poly_structure(P)
            dr = extract_rational_structure(RationalMatrix.from_poly_matrix(P))
            assert dr.numerators == dp.invariant_factors
            assert all(psi == ONE for psi in dr.denominators)
            assert dr.inf_orders == dp.inf_orders
            assert dr.colspan_indices == dp.colspan_indices
            assert dr.right_indices == dp.right_indices

    def test_row_with_pole(self):
        d = extract_rational_structure(
            RationalMatrix([[RatFn(ONE), RatFn(ONE, S - ONE)]])
        )
        assert d.rank == 1
        assert d.numerators == (ONE,)
        assert d.denominators == (S - ONE,)
        assert d.inf_orders == (0,)

    def test_smallest_order_sign_convention(self):
        # nonzero polynomial part: q_1 equals minus its degree
        R = RationalMatrix([[RatFn(S * S), RatFn(ONE, S)]])
        d = extract_rational_structure(R)
        assert d.inf_orders[0] == -2
        # strictly proper: q_1 positive
        d2 = extract_rational_structure(RationalMatrix([[RatFn(ONE, S * S)]]))
        assert d2.inf_orders[0] == 2

    def test_clearing_with_larger_multiple_agrees(self):
        # clearing with a strict multiple of the least common denominator
        # lands on the same rational data
        rng = random.Random(31)
        for _ in range(10):
            den_pool = [ONE, S, S - ONE, S + ONE]
            rows = []
            m, n = rng.randint(1, 2), rng.randint(1, 3)
            for _ in range(m):
                row = []
                for _ in range(n):
                    num = Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
                    row.append(RatFn(num, rng.choice(den_pool)))
                rows.append(row)
            R = RationalMatrix(rows, n=n)
            if R.is_zero:
                continue
            psi1, P = clear_denominators(R)
            extra = S - Poly.constant(2)
            bigger = psi1 * extra
            P2 = PolyMatrix(
                [[e.num * (bigger // e.den) for e in row] for row in R.rows], n=n
            )
            dp2 = extract_poly_structure(P2)
            dr = extract_rational_structure(R)
            # invariant rational functions from the larger clearing
            eps2, psi2 = [], []
            for a in dp2.invariant_factors:
                fr = RatFn(a, bigger)
                eps2.append(fr.num.monic())
                psi2.append(fr.den)
            assert tuple(eps2) == dr.numerators
            assert tuple(psi2) == dr.denominators
            q1 = int(bigger.degree) - dp2.degree
            assert tuple(f + q1 for f in dp2.inf_partial_mults) == dr.inf_orders
            assert dp2.colspan_indices == dr.colspan_indices
            assert dp2.rowspan_indices == dr.rowspan_indices
            assert dp2.right_indices == dr.right_indices
            assert dp2.left_indices == dr.left_indices


SHARED_FIELDS = (
    "m", "n", "rank",
    "colspan_indices", "rowspan_indices", "right_indices", "left_indices",
    "colspan_basis", "rowspan_basis", "right_null_basis", "left_null_basis",
)


class TestRecords:
    def test_both_records_lead_with_the_shared_fields(self):
        assert tuple(f.name for f in dataclasses.fields(_SubspaceData)) == SHARED_FIELDS
        for record in (PolyStructuralData, RatStructuralData):
            names = tuple(f.name for f in dataclasses.fields(record))
            assert names[:len(SHARED_FIELDS)] == SHARED_FIELDS
            assert "inf_orders" in names[len(SHARED_FIELDS):]

    def test_rational_record_passes_the_polynomial_subspaces_through(self):
        rng = random.Random(53)
        dens = [ONE, S, S - ONE, S + ONE, S * S]
        checked = 0
        while checked < 25:
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            R = RationalMatrix([[RatFn(Poly([rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]),
                                       rng.choice(dens)) for _ in range(n)] for _ in range(m)],
                               n=n)
            if R.is_zero:
                continue
            rat = extract_rational_structure(R)
            poly = extract_poly_structure(clear_denominators(R)[1])
            for name in SHARED_FIELDS:
                assert getattr(rat, name) == getattr(poly, name), name
            checked += 1


@functools.lru_cache(maxsize=None)
def realized_case(variant: str, seed: int):
    """(prescription, matrix realizing it) for a small feasible prescription."""
    rng = random.Random(seed)
    poly_variant = "P" + variant[1:]
    while True:
        p = random_feasible_poly_prescription(rng, poly_variant, max_r=2, max_mn=4, extra_d=2)
        if variant.startswith("P"):
            return p, realize_full(p) if p.uses_null_indices else realize_span(p)
        p = rationalize_prescription(rng, p)
        if check_feasibility(p).feasible:
            return p, realize_rational(p)


def _changed_fields(p: Prescription, c: Fraction) -> dict:
    """field -> builds a changed value of it, for each field p carries."""
    lin = Poly((-c, 1))

    def grow(part):
        return (part[0] + 1,) + tuple(part[1:])

    k, l = p.span_degrees()
    return {
        "d": lambda: p.d + 1,
        "alpha": lambda: p.alpha[:-1] + (p.alpha[-1] * lin,),
        "f": lambda: p.f[:-1] + (p.f[-1] + 1,),
        "epsilon": lambda: p.epsilon[:-1] + (p.epsilon[-1] * lin,),
        "psi": lambda: (p.psi[0] * lin,) + p.psi[1:],
        "q": lambda: p.q[:-1] + (p.q[-1] + 1,),
        "k": lambda: grow(p.k),
        "l": lambda: grow(p.l),
        "right": lambda: grow(p.right),
        "left": lambda: grow(p.left),
        # a bidiagonal basis: the same degrees with another span, or new degrees
        "K": lambda: build_minimal_basis(grow(k) if c else k, p.m),
        "Lt": lambda: build_minimal_basis(grow(l) if c else l, p.n),
    }


CHANGEABLE = ("d", "alpha", "f", "epsilon", "psi", "q", "k", "l", "right", "left", "K", "Lt")
VARIANT_NAMES = ("P1_spans", "P2_span_indices", "P3_full",
                 "R1_spans", "R2_span_indices", "R3_full")


def _perturbed(p: Prescription) -> dict:
    """label -> a changed copy of p, for each change p admits: K or Lt with
    its rows reversed (a minimal basis with the same degrees that spans
    another module unless the span is everything), a larger first right or
    left null index, and a larger last f (or q)."""
    def rows_reversed(B):
        return PolyMatrix(B.rows[::-1], n=B.n)

    def grown(part):
        return (part[0] + 1,) + part[1:]

    changes = {"none": {}}
    if p.uses_bases:
        changes.update(K={"K": rows_reversed(p.K)}, Lt={"Lt": rows_reversed(p.Lt)})
    if p.uses_null_indices:
        changes.update({name: {name: grown(getattr(p, name))}
                        for name in ("right", "left") if getattr(p, name)})
    name = "q" if p.is_rational else "f"
    changes[name] = {name: getattr(p, name)[:-1] + (getattr(p, name)[-1] + 1,)}
    out = {}
    for label, fields in changes.items():
        try:
            out[label] = dataclasses.replace(p, **fields)
        except (MalformedPrescription, ImpossibleSquareCase):
            pass  # not a valid prescription
    return out


class TestVerifyBuildsNoBasis:
    """verify reads the indices of the weak Popov forms and checks K and Lt
    against the matrix itself; its verdicts are those of the full extraction
    with its column Popov bases (conftest.fieldwise_verify)."""

    EXPECTED = {"K": "colspan_basis", "Lt": "rowspan_basis", "right": "right_indices",
                "left": "left_indices", "f": "inf_partial_mults", "q": "inf_orders"}

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_matches_fieldwise_oracle(self, variant):
        seen = Counter()
        for seed in range(8):
            p, A = realized_case(variant, seed)
            for label, changed in _perturbed(p).items():
                rep = verify(A, changed)
                assert rep == fieldwise_verify(A, changed), (seed, label)
                if label == "none":
                    assert rep.passed
                seen[label] += self.EXPECTED.get(label) in rep.mismatches
        # each kind of change the variant carries is caught at least once
        want = {"f" if variant[0] == "P" else "q"}
        want |= {"K", "Lt"} if "spans" in variant else set()
        want |= {"right", "left"} if "full" in variant else set()
        assert {label for label, count in seen.items() if count} == want

    @pytest.mark.parametrize("variant", ["P1_spans", "P3_full", "R2_span_indices"])
    def test_runs_no_popov_normalization(self, variant, monkeypatch):
        calls = []
        for module, name in ((polymat, "_popov"), (extract, "_normalize_basis"),
                             (extract, "spans_equal")):
            monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name) or 1 / 0)
        for seed in range(3):
            p, A = realized_case(variant, seed)
            assert verify(A, p).passed
        assert calls == []
        # the public extraction still ends in the column Popov form
        with pytest.raises(ZeroDivisionError):
            (extract_rational_structure if p.is_rational else extract_poly_structure)(A)
        assert calls[0] in ("_popov", "_normalize_basis")

    @pytest.mark.parametrize("variant", ["P3_full", "R3_full"])
    def test_checks_every_identity(self, variant, monkeypatch):
        # verify stops short of the column Popov form, not of the identity table
        p, A = realized_case(variant, 0)
        cls = RatStructuralData if p.is_rational else PolyStructuralData
        table = cls.identities
        extract_ = extract_rational_structure if p.is_rational else extract_poly_structure
        labels = list(extract_(A).identities())
        for label in labels:
            monkeypatch.setattr(cls, "identities",
                                lambda self, label=label: {**table(self), label: False})
            with pytest.raises(InternalInvariantError, match=f"identity {label} fails"):
                verify(A, p)
        assert len(labels) == (2 if p.is_rational else 4)


class TestVerify:
    @settings(max_examples=150, deadline=None)
    @given(
        variant=hst.sampled_from(VARIANT_NAMES),
        seed=hst.integers(0, 2),
        names=hst.sets(hst.sampled_from(CHANGEABLE)),
        c=hst.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)]),
        rank_one=hst.booleans(),
    )
    def test_table_matches_fieldwise_oracle(self, variant, seed, names, c, rank_one):
        p, A = realized_case(variant, seed)
        build = _changed_fields(p, c)
        for name in sorted(names):
            if getattr(p, name) is None:
                continue
            try:
                p = dataclasses.replace(p, **{name: build[name]()})
            except (IndexError, MalformedPrescription, ImpossibleSquareCase):
                pass  # the changed copy would not be a valid prescription
        if rank_one:  # every row a copy of the first nonzero one
            row = next(row for row in A.rows if any(not e.is_zero for e in row))
            A = type(A)([row] * A.m, n=A.n)
        assert verify(A, p) == fieldwise_verify(A, p)

    def test_several_mismatches_in_table_order(self):
        p = Prescription(
            variant="P2_span_indices", m=2, n=2, r=2, d=2,
            alpha=(ONE, S ** 3), f=(0, 1), k=(1, 0), l=(0, 0),
        )
        rep = verify(M([[S, 1], [0, S]]), p)
        assert rep.mismatches == (
            "degree", "invariant_factors", "inf_partial_mults", "colspan_indices")
        assert rep == fieldwise_verify(M([[S, 1], [0, S]]), p)

    def test_several_rational_mismatches_in_table_order(self):
        p = Prescription(
            variant="R3_full", m=1, n=2, r=1,
            epsilon=(S - ONE,), psi=(S * S,), q=(2,), k=(0,), l=(0,), right=(0,), left=(),
        )
        R = RationalMatrix([[RatFn(ONE, S), RatFn(ONE)]], n=2)
        rep = verify(R, p)
        assert rep.mismatches == (
            "numerators", "denominators", "inf_orders", "rowspan_indices", "right_indices")
        assert rep == fieldwise_verify(R, p)

    def test_pass_identity(self):
        p = Prescription(
            variant="P2_span_indices",
            m=2,
            n=2,
            r=2,
            d=0,
            alpha=(ONE, ONE),
            f=(0, 0),
            k=(0, 0),
            l=(0, 0),
        )
        assert verify(PolyMatrix.identity(2), p).passed

    def test_pass_jordan(self):
        p = Prescription(
            variant="P2_span_indices",
            m=2,
            n=2,
            r=2,
            d=1,
            alpha=(ONE, S * S),
            f=(0, 0),
            k=(0, 0),
            l=(0, 0),
        )
        assert verify(M([[S, 1], [0, S]]), p).passed

    def test_fail_names_field(self):
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
        rep = verify(M([[S, 1], [0, S]]), p)
        assert not rep.passed
        assert "invariant_factors" in rep.mismatches

    def test_shape_mismatch(self):
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
        with pytest.raises(ShapeMismatch):
            verify(PolyMatrix.identity(2), p)

    def test_zero_matrix_fails_on_rank(self):
        # a prescription has rank r >= 1, so a zero matrix of its shape fails
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
        zero = RationalMatrix([[RatFn(Poly())] * 2] * 2, n=2)
        rep = verify(zero, p)
        assert not rep.passed and rep.mismatches == ("rank",)
        assert verify(PolyMatrix.zeros(2, 2), p).mismatches == ("rank",)

    def test_spans_equal_accepts_reordered_basis(self):
        rng = random.Random(37)
        B = M([[S * S, 0], [1, S], [0, 1]])
        other = B @ M([[0, 1], [1, 0]])  # swap columns: same span, minimal
        assert spans_equal(B, other)

    def test_spans_equal_rejects_different_span(self):
        B1 = M([[1], [0]])
        B2 = M([[0], [1]])
        assert not spans_equal(B1, B2)
