"""Matrix kernel: rank, Smith form, reduction, reversal, minors, Mobius frames."""

import copy
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from structura.errors import (
    DegreeMismatch,
    DegreeTooSmall,
    InternalInvariantError,
    RankDeficient,
    ZeroMatrix,
)
from structura.qpoly import ONE, ZERO, X, Poly, RatFn
from structura import polymat
from structura.jsonio import matrix_from_json
from structura.extract import RationalMatrix
from structura.synthesis import build_minimal_basis
from structura.polymat import (
    PolyMatrix,
    _frac_rank,
    _ext_gcd,
    _minimal_bases,
    _smith_core,
    column_reduce,
    det,
    invariant_factors,
    is_column_proper,
    is_minimal_basis,
    mobius_frame,
    rank,
    reversal,
    scale_basis_mobius,
    smith_form,
)
from conftest import (
    KOutOfRange,
    cofactor_det,
    fraction_rref,
    gcd_minors_oracle,
    is_unimodular,
    left_inverse_matrix,
    max_minor_degree,
    poly_column_reduce,
    poly_ext_gcd,
    poly_smith_core,
    random_low_rank_matrix,
    random_matrix,
    random_rational_matrix,
    random_unimodular,
    scanned_rank,
    smith_is_minimal_basis,
)

S = X
M = PolyMatrix.from_scalar_rows


def check_smith(P):
    sm = smith_form(P)
    padded = [[ZERO] * P.n for _ in range(P.m)]
    for i, a in enumerate(sm.diag):
        padded[i][i] = a
    assert sm.left @ P @ sm.right == PolyMatrix(padded, n=P.n)
    assert is_unimodular(sm.left) and is_unimodular(sm.right)

    def first_columns_of_identity(k):
        return PolyMatrix.identity(k).submatrix(range(k), range(sm.rank))

    # the derived leading columns of left^-1 and right^-T are inverse columns
    assert sm.left @ left_inverse_matrix(P, sm.right, sm.diag) == (
        first_columns_of_identity(P.m))
    assert sm.right.transpose() @ left_inverse_matrix(
        P.transpose(), sm.left.transpose(), sm.diag) == first_columns_of_identity(P.n)
    for i in range(sm.rank - 1):
        assert (sm.diag[i + 1] % sm.diag[i]).is_zero
    for a in sm.diag:
        assert a.is_monic
    return sm


@hst.composite
def small_matrices(draw, coeff=hst.integers(-3, 3)):
    """0-4 x 0-4 matrices of degree <= 2 with coefficients drawn from coeff,
    small integers by default; about half are a product through
    k <= min(m, n) columns, so rank k or less."""
    m, n = draw(hst.integers(0, 4)), draw(hst.integers(0, 4))

    def block(rows, cols, deg):
        coeffs = hst.lists(coeff, min_size=0, max_size=deg + 1)
        return PolyMatrix(
            [[Poly(draw(coeffs)) for _ in range(cols)] for _ in range(rows)], n=cols
        )

    if draw(hst.booleans()):
        k = draw(hst.integers(0, min(m, n)))
        return block(m, k, 1) @ block(k, n, 1)
    return block(m, n, 2)


class TestDenseMatrix:
    """The body PolyMatrix and RationalMatrix share."""

    CASES = [(PolyMatrix, ONE, "Poly"), (RationalMatrix, RatFn(ONE), "RatFn")]

    @pytest.mark.parametrize("cls, entry, _", CASES)
    def test_ragged_rows_rejected(self, cls, entry, _):
        with pytest.raises(ValueError, match="ragged"):
            cls([[entry, entry], [entry]])

    @pytest.mark.parametrize("cls, entry, type_name", CASES)
    def test_wrong_entry_type_names_the_type(self, cls, entry, type_name):
        with pytest.raises(TypeError, match=f"entries must be {type_name}$"):
            cls([[entry, 1]])

    @pytest.mark.parametrize("cls, entry, _", CASES)
    def test_value_semantics(self, cls, entry, _):
        A = cls([[entry, entry]])
        assert repr(A).startswith(f"{cls.__name__}(1x2: [")
        assert A == cls([[entry, entry]]) and hash(A) == hash(cls([[entry, entry]]))
        assert A != cls([[entry], [entry]])
        assert A[0, 1] == entry and not A.is_zero

    def test_equality_is_false_across_types(self):
        P = M([[S, 1]])
        R = RationalMatrix.from_poly_matrix(P)
        assert R != P and P != R
        assert R == RationalMatrix([[RatFn(S), RatFn(ONE)]]) and R.is_polynomial


class TestUncheckedBuilds:
    """The builds that skip the entry check keep every shape, empty ones too,
    and give the rows the public constructor would."""

    @staticmethod
    def checked(rows, n):
        return PolyMatrix([list(row) for row in rows], n=n)

    @pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (0, 0), (2, 3)])
    def test_shapes(self, m, n):
        Z = PolyMatrix.zeros(m, n)
        assert (Z.m, Z.n, Z.rows) == (m, n, ((ZERO,) * n,) * m)
        T = Z.transpose()
        assert (T.m, T.n) == (n, m) and T == self.checked(T.rows, m) == PolyMatrix.zeros(n, m)
        assert T.transpose() == Z
        assert Z + Z == Z == Z.map_entries(lambda e: e) == Z.submatrix(range(m), range(n))
        assert Z.submatrix([], range(n)) == PolyMatrix.zeros(0, n)
        assert Z.submatrix(range(m), []) == PolyMatrix.zeros(m, 0)
        assert Z @ PolyMatrix.zeros(n, 2) == PolyMatrix.zeros(m, 2)
        assert PolyMatrix.hstack(Z, PolyMatrix.zeros(m, 0)) == Z
        assert PolyMatrix.hstack(PolyMatrix.zeros(m, 1), Z) == PolyMatrix.zeros(m, n + 1)

    def test_transpose_of_no_rows_has_empty_rows(self):
        T = PolyMatrix.zeros(0, 3).transpose()
        assert (T.m, T.n, T.rows) == (3, 0, ((), (), ()))

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_identity(self, n):
        I = PolyMatrix.identity(n)
        assert I == self.checked(I.rows, n) and I.transpose() == I

    def test_entries_and_values(self):
        A, B = M([[S, 1], [0, S * S]]), M([[1, S], [2, 0]])
        for C in (A + B, A @ B, A.transpose(), PolyMatrix.hstack(A, B),
                  A.submatrix([1], [1, 0]), A.map_entries(lambda e: e * S)):
            assert type(C.rows) is tuple and all(type(row) is tuple for row in C.rows)
            assert C == self.checked(C.rows, C.n)
        assert A @ B == M([[S + Poly([2]), S * S], [Poly([0, 0, 2]), 0]])
        assert PolyMatrix.hstack(A, B).submatrix([0, 1], [1, 2]) == M([[1, 1], [S * S, 2]])

    def test_public_constructor_still_checks(self):
        with pytest.raises(TypeError, match="entries must be Poly$"):
            PolyMatrix([[ONE, 1]], n=2)


def read_back(P: PolyMatrix) -> PolyMatrix:
    """The integer matrix P as matrix_from_json reads its integer arrays."""
    return matrix_from_json({"m": P.m, "n": P.n,
                             "entries": [list(e.numerators) for row in P.rows for e in row]})


class TestIntegerForm:
    """The eliminations read the integer form PolyMatrix._ints, shared by
    every call on a matrix; those that work in place (_bareiss, _smith_core,
    _clear) copy the rows they change, so that form stays as it was."""

    @staticmethod
    def cases():
        rng = random.Random(47)
        square, tall = random_matrix(rng, 4, 4, 2), random_matrix(rng, 5, 3, 1)
        low = random_low_rank_matrix(rng, 4, 4, 2)
        rational = random_rational_matrix(rng, 4, 4, 1)
        assert not rational.is_zero and max(rational._ints[1]) > 1
        return [read_back(square), square, read_back(tall), tall, read_back(low), low, rational]

    def test_eliminations_leave_the_integer_form(self):
        for P in self.cases():
            before = copy.deepcopy(P._ints)
            runs = []
            for _ in range(2):
                runs.append((det(P) if P.is_square else None, invariant_factors(P),
                             _minimal_bases(P), is_minimal_basis(P)))
                assert P._ints == before
            assert runs[0] == runs[1]
            d, diag, bases, minimal = runs[0]
            assert d == (cofactor_det(P.rows) if P.is_square else None)
            assert diag == bases[0] == poly_smith_core(P, track=False)[0]
            assert minimal == smith_is_minimal_basis(P)


class TestSmith:
    @settings(max_examples=120, deadline=None)
    @given(small_matrices())
    def test_properties(self, P):
        sm = check_smith(P)
        assert invariant_factors(P) == sm.diag
        assert sm.rank == rank(P)

    def test_identity(self):
        sm = check_smith(PolyMatrix.identity(2))
        assert sm.diag == (ONE, ONE)
        assert sm.left == PolyMatrix.identity(2)

    def test_jordan_like_block(self):
        sm = check_smith(M([[S, 1], [0, S]]))
        assert sm.diag == (ONE, S * S)

    def test_already_diagonal(self):
        sm = check_smith(M([[S, 0], [0, S * (S - ONE)]]))
        assert sm.diag == (S, S * (S - ONE))

    def test_zero_matrix(self):
        sm = check_smith(PolyMatrix.zeros(2, 3))
        assert sm.rank == 0 and sm.diag == ()

    def test_wide_and_tall(self):
        check_smith(M([[S, 1, S * S]]))
        check_smith(M([[S], [1], [S * S]]))

    def test_matches_minor_gcds_randomly(self):
        rng = random.Random(11)
        for _ in range(25):
            P = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 2)
            sm = check_smith(P)
            prod = ONE
            for k in range(1, sm.rank + 1):
                prod = prod * sm.diag[k - 1]
                assert prod == gcd_minors_oracle(P, k)


@hst.composite
def smith_inputs(draw):
    """0-5 x 0-5 matrices of degree <= 2 with coefficients a/b, |a| <= 3 and
    b <= 3, in one of three kinds: dense; low rank, every row after the
    first k a combination of those k with polynomial weights (a weight of 1
    and zeros elsewhere repeats a row); or with zero rows and columns."""
    m, n = draw(hst.integers(0, 5)), draw(hst.integers(0, 5))
    coeff = hst.fractions(min_value=-3, max_value=3, max_denominator=3)
    entry = hst.lists(coeff, max_size=3).map(Poly)
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    kind = draw(hst.sampled_from(["dense", "low-rank", "zeros"]))
    if kind == "low-rank" and m > 1:
        k = draw(hst.integers(1, m - 1))
        weight = hst.one_of(hst.just(ONE), hst.just(ZERO), entry)
        for i in range(k, m):
            ws = [draw(weight) for _ in range(k)]
            rows[i] = [sum((w * rows[r][j] for r, w in enumerate(ws)), ZERO)
                       for j in range(n)]
    if kind == "zeros":
        for i in draw(hst.sets(hst.integers(0, max(m - 1, 0)), max_size=m)):
            rows[i] = [ZERO] * n
        for j in draw(hst.sets(hst.integers(0, max(n - 1, 0)), max_size=n)):
            for row in rows:
                row[j] = ZERO
    return PolyMatrix(rows, n=n)


def poly_rows(rows):
    return tuple(tuple(row) for row in rows)


class TestIntegerSmithCore:
    """_smith_core on integer rows against the Poly elimination it replaced
    (conftest.poly_smith_core): the same steps, so the same (diag, U, V)."""

    @settings(max_examples=250, deadline=None)
    @given(smith_inputs(), hst.booleans())
    def test_matches_poly_oracle(self, P, track):
        diag, U, V = poly_smith_core(P, track)
        assert invariant_factors(P) == diag
        if not track:
            assert U is None and V is None and _smith_core(P, track=False)[1:] == (None, None)
            return
        sm = smith_form(P)
        assert sm.diag == diag
        assert (sm.left.rows, sm.right.rows) == (poly_rows(U), poly_rows(V))

    @pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (0, 0)])
    def test_empty_shapes(self, m, n):
        P = PolyMatrix.zeros(m, n)
        sm = smith_form(P)
        assert sm.diag == () and sm.left == PolyMatrix.identity(m)
        assert sm.right == PolyMatrix.identity(n)
        assert poly_smith_core(P, True) == ((), [list(r) for r in sm.left.rows],
                                            [list(r) for r in sm.right.rows])

    def test_zero_row_keeps_its_transformer_scale(self):
        # the second row of W becomes zero and is not rescaled, so its row of
        # V^T is divided by the step's multiplier, not by a content
        P = M([[3, 0, -1], [-1, 1, -2 * S]])
        sm = check_smith(P)
        third = Fraction(1, 3)
        assert sm.right.col(2) == (Poly([third]), Poly([third, 2]), ONE)
        assert (sm.left.rows, sm.right.rows) == tuple(map(poly_rows, poly_smith_core(P, True)[1:]))

    @pytest.mark.parametrize("rows, left, right", [
        # Bezout coefficients -1/2 and 1/2, and the second row becomes zero
        ([[S], [S + Poly([2])]], [[Poly([Fraction(-1, 2)]), Poly([Fraction(1, 2)])],
                                  [Poly([-2, -1]), S]], [[ONE]]),
        ([[2 * S, S + ONE], [S + Poly([3]), 0]],
         [[Poly([Fraction(-1, 6)]), Poly([Fraction(1, 3)])], [Poly([3, 1]), Poly([0, -2])]],
         [[ONE, Poly([Fraction(1, 6), Fraction(1, 6)])], [ZERO, ONE]]),
    ])
    def test_rational_bezout_coefficients(self, rows, left, right):
        P = M(rows)
        sm = check_smith(P)
        assert (sm.left.rows, sm.right.rows) == (poly_rows(left), poly_rows(right))
        assert (sm.left.rows, sm.right.rows) == tuple(map(poly_rows, poly_smith_core(P, True)[1:]))

    @settings(max_examples=300, deadline=None)
    @given(hst.lists(hst.integers(-6, 6), min_size=1, max_size=5),
           hst.lists(hst.integers(-6, 6), min_size=1, max_size=5))
    def test_ext_gcd_matches_poly_oracle(self, a, b):
        A, B = Poly(a), Poly(b)
        assume(not A.is_zero and not B.is_zero and not (B % A).is_zero)
        (x, y, d), (w, u, e) = _ext_gcd(list(A.numerators), list(B.numerators))
        g, xx, yy = poly_ext_gcd(A, B)
        assert d > 0 and e > 0
        assert (Poly(x).scale(Fraction(1, d)), Poly(y).scale(Fraction(1, d))) == (xx, yy)
        assert (Poly(u).scale(Fraction(1, e)), Poly(w).scale(Fraction(-1, e))) == (A // g, B // g)


class TestLeftInverseColumns:
    def test_matches_product_divided_by_invariant_factors(self):
        # rational coefficients: column j of P @ right, divided exactly by
        # diag[j], for both the column-span and the row-span call
        rng = random.Random(89)
        for _ in range(60):
            P = random_rational_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 2)
            if P.is_zero:
                continue
            sm = smith_form(P)
            for A, right in ((P, sm.right), (P.transpose(), sm.left.transpose())):
                prod = A @ right
                want = []
                for i in range(A.m):
                    row = []
                    for j, a in enumerate(sm.diag):
                        q, r = divmod(prod[i, j], a)
                        assert r.is_zero
                        row.append(q)
                    want.append(row)
                assert left_inverse_matrix(A, right, sm.diag) == PolyMatrix(want, n=sm.rank)

    def test_inexact_division_raises(self):
        # a checked identity, not an assert: it also fires under python -O
        with pytest.raises(InternalInvariantError, match="not divisible"):
            left_inverse_matrix(M([[1, S]]), PolyMatrix.identity(2), (S,))


class TestInvariantFactors:
    def test_zero_matrix(self):
        assert invariant_factors(PolyMatrix.zeros(2, 3)) == ()
        assert invariant_factors(PolyMatrix.zeros(0, 0)) == ()

    def test_equals_smith_diagonal(self):
        rng = random.Random(23)
        cases = []
        for _ in range(8):
            k = rng.randint(1, 4)
            cases.append(random_matrix(rng, k, k, 2))  # square
            m, n = rng.sample(range(1, 5), 2)
            cases.append(random_matrix(rng, m, n, 2))  # rectangular
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            cases.append(random_low_rank_matrix(rng, m, n, 1))  # low rank
        for P in cases:
            variants = [P] if P.is_zero else [P, reversal(P)]
            for Q in variants:
                assert invariant_factors(Q) == smith_form(Q).diag


def _rational_polys(max_deg):
    return hst.builds(Poly, hst.lists(
        hst.builds(Fraction, hst.integers(-4, 4), hst.integers(1, 3)), max_size=max_deg + 1))


@hst.composite
def det_inputs(draw):
    """n x n matrices of degree <= 2 with rational coefficients, n <= 5:
    dense, with a zero row or column, or a product of n x k and k x n
    factors of degree <= 1 with k < n, whose determinant is 0."""
    n = draw(hst.integers(1, 5))
    kind = draw(hst.sampled_from(["dense", "zero row", "zero column", "low rank"]))
    if kind == "low rank":
        k = draw(hst.integers(0, n - 1))
        A = PolyMatrix([[draw(_rational_polys(1)) for _ in range(k)] for _ in range(n)], n=k)
        B = PolyMatrix([[draw(_rational_polys(1)) for _ in range(n)] for _ in range(k)], n=n)
        return A @ B
    rows = [[draw(_rational_polys(2)) for _ in range(n)] for _ in range(n)]
    z = draw(hst.integers(0, n - 1))
    if kind == "zero row":
        rows[z] = [ZERO] * n
    elif kind == "zero column":
        for row in rows:
            row[z] = ZERO
    return PolyMatrix(rows, n=n)


class TestMinors:
    def test_gcd_first_order(self):
        assert gcd_minors_oracle(M([[S, 1], [0, S]]), 1) == ONE

    def test_gcd_second_order(self):
        assert gcd_minors_oracle(M([[S, 1], [0, S]]), 2) == S * S

    def test_gcd_identity(self):
        assert gcd_minors_oracle(PolyMatrix.identity(3), 2) == ONE

    def test_out_of_range(self):
        with pytest.raises(KOutOfRange):
            gcd_minors_oracle(PolyMatrix.identity(2), 3)
        with pytest.raises(KOutOfRange):
            max_minor_degree(PolyMatrix.identity(2), 0)

    def test_max_degree_examples(self):
        P = M([[S, 1], [0, S]])
        assert max_minor_degree(P, 1) == 1
        assert max_minor_degree(P, 2) == 2

    @settings(max_examples=200, deadline=None)
    @given(det_inputs())
    @example(PolyMatrix([], n=0))
    def test_bareiss_agrees_with_cofactor(self, P):
        # det scales each row by the lcm of its denominators, so the draws
        # have rational coefficients
        assert det(P) == cofactor_det(P.rows)


# s(s - 1)(s + 1)(s - 2)(s + 2) vanishes at the first five points of the scan
# oracle scanned_rank
TWO = Poly.constant(2)
ROOTS_AT_FIVE_POINTS = S * (S - ONE) * (S + ONE) * (S - TWO) * (S + TWO)


rational_rows = hst.integers(1, 4).flatmap(
    lambda n: hst.lists(
        hst.lists(
            hst.builds(Fraction, hst.integers(-6, 6), hst.integers(1, 4)),
            min_size=n, max_size=n,
        ),
        min_size=0, max_size=4,
    )
)


class TestIntegerGaussJordan:
    @settings(max_examples=150, deadline=None)
    @given(rational_rows)
    def test_matches_rational_rref(self, rows):
        # forward elimination on integer rows counts the pivots of the
        # rational rref
        int_rows = []
        for row in rows:
            den = math.lcm(*(x.denominator for x in row))
            int_rows.append([int(x * den) for x in row])
        assert _frac_rank(int_rows) == len(fraction_rref(rows)[1])


def largest_nonzero_minor_order(P: PolyMatrix) -> int:
    """The largest k with a nonzero k x k minor, by cofactor expansion."""
    return max(
        k for k in range(min(P.m, P.n) + 1)
        if any(not cofactor_det([[P.rows[i][j] for j in J] for i in I]).is_zero
               for I in itertools.combinations(range(P.m), k)
               for J in itertools.combinations(range(P.n), k))
    )


BIG = 10 ** 30
large_rationals = hst.builds(
    Fraction, hst.integers(-BIG, BIG), hst.sampled_from([1, 3, BIG + 7]))


class TestRank:
    def test_zero_and_empty(self):
        assert rank(PolyMatrix.zeros(2, 3)) == 0
        for k in range(4):
            assert rank(PolyMatrix.zeros(0, k)) == 0
            assert rank(PolyMatrix.zeros(k, 0)) == 0

    def test_zero_rows_and_columns(self):
        P = M([[0, 0, 0, 0], [S, 0, 1, 0], [0, 0, 0, 0], [S * S, 0, S, 0]])
        assert rank(P) == 1
        assert rank(P.transpose()) == 1
        assert rank(M([[0, 0], [0, S - Poly.constant(3)], [0, 0]])) == 1
        assert rank(M([[0, 1, 0], [0, 0, S]])) == 2

    def test_diagonal_with_roots_at_five_points(self):
        assert rank(M([[1, 0], [0, ROOTS_AT_FIVE_POINTS]])) == 2

    def test_root_at_a_power_of_two(self):
        # [[s - 2^k]] has H = 2^k + 1, so for k >= 2 it is read at
        # 2^(k + 1); one bit less would read it at its root
        for k in range(1, 81):
            assert rank(M([[S - Poly.constant(2 ** k)]])) == 1

    def test_large_root(self):
        assert rank(M([[S - Poly.constant(Fraction(BIG + 7, 3))]])) == 1
        assert rank(M([[S - Poly.constant(BIG), 1], [0, S + Poly.constant(BIG)]])) == 2

    def test_rank_deficient_products_with_large_coefficients(self):
        rng = random.Random(24)
        for _ in range(30):
            m, n = rng.randint(2, 5), rng.randint(2, 5)
            k = rng.randint(1, min(m, n) - 1)

            def factor(rows, cols):
                return PolyMatrix(
                    [[Poly([Fraction(rng.randint(-BIG, BIG), rng.choice([1, 3, BIG + 7]))
                            for _ in range(2)]) for _ in range(cols)] for _ in range(rows)],
                    n=cols,
                )

            P = factor(m, k) @ factor(k, n)
            assert rank(P) == scanned_rank(P) == k

    def test_rational_multiple_rows(self):
        p, q = S * S - Poly.constant(BIG), S + Poly.constant(Fraction(1, BIG))
        c = Fraction(BIG + 1, 7)
        P = M([[p, q, 1], [p.scale(c), q.scale(c), c]])
        assert rank(P) == 1
        assert rank(P.transpose()) == 1

    @settings(max_examples=200, deadline=None)
    @given(small_matrices())
    @example(M([[ROOTS_AT_FIVE_POINTS, 1], [0, 1]]))
    def test_matches_scan_and_minors(self, P):
        assert rank(P) == scanned_rank(P) == largest_nonzero_minor_order(P)

    @settings(max_examples=100, deadline=None)
    @given(small_matrices(large_rationals))
    def test_matches_scan_and_minors_with_large_rational_coefficients(self, P):
        assert rank(P) == scanned_rank(P) == largest_nonzero_minor_order(P)


@hst.composite
def full_column_rank_matrices(draw):
    """m x n matrices of degree <= 2 with 1 <= n <= m <= 4 and rank n."""
    m = draw(hst.integers(1, 4))
    n = draw(hst.integers(1, m))
    coeffs = hst.lists(hst.integers(-3, 3), min_size=0, max_size=3)
    P = PolyMatrix([[Poly(draw(coeffs)) for _ in range(n)] for _ in range(m)], n=n)
    assume(rank(P) == n)
    return P


class TestColumnReduce:
    def test_already_reduced(self):
        P = M([[S, 0], [0, 1]])
        cr = column_reduce(P)
        assert cr.reduced == P
        assert cr.column_degrees == (1, 0)

    def test_one_step(self):
        P = M([[S, S * S], [1, S + ONE]])
        cr = column_reduce(P)
        assert cr.column_degrees == (1, 0)
        assert is_column_proper(cr.reduced)

    @settings(max_examples=80, deadline=None)
    @given(full_column_rank_matrices())
    def test_properties(self, P):
        # P @ V with V unimodular: column proper, same invariant factors and
        # the same rational column span
        cr = column_reduce(P)
        assert is_column_proper(cr.reduced)
        assert cr.column_degrees == cr.reduced.column_degrees()
        assert invariant_factors(cr.reduced) == invariant_factors(P)
        assert rank(PolyMatrix.hstack(P, cr.reduced)) == P.n

    def test_unimodular_reduces_to_degree_zero(self):
        rng = random.Random(23)
        for _ in range(15):
            U = random_unimodular(rng, rng.randint(1, 3), ops=4)
            cr = column_reduce(U)
            assert all(d == 0 for d in cr.column_degrees)

    def test_degree_sum_never_increases(self):
        rng = random.Random(29)
        for _ in range(15):
            mrows = rng.randint(2, 4)
            ncols = rng.randint(1, mrows)
            P = random_matrix(rng, mrows, ncols, 2)
            if rank(P) < ncols:
                continue
            before = sum(int(d) for d in P.column_degrees())
            cr = column_reduce(P)
            assert sum(int(d) for d in cr.column_degrees) <= before

    def test_rank_deficient_rejected(self, monkeypatch):
        import structura.polymat as polymat

        steps = []
        cancel = polymat._cancel

        def counting(*args):
            steps.append(args)
            return cancel(*args)

        monkeypatch.setattr(polymat, "_cancel", counting)
        # a 3x3 rank-2 product that takes five simple transformations before
        # a column vanishes
        product = M([[1, 0], [S, 1], [S * S, S]]) @ M([[1, S, S * S + ONE], [0, 1, S]])
        for P in (
            M([[S, S], [S, S]]),
            M([[S, S * S], [1, S]]),
            M([[S, 1]]),
            M([[S, 0], [1, 0], [S * S, 0]]),
            product,
        ):
            with pytest.raises(RankDeficient):
                column_reduce(P)
        assert len(steps) > 1
        monkeypatch.undo()

        rng = random.Random(53)
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            if rng.random() < 0.5:
                P = random_low_rank_matrix(rng, m, n, rng.randint(1, min(m, n)))
            else:
                P = random_matrix(rng, m, n, 2)
            if len(invariant_factors(P)) < n:
                with pytest.raises(RankDeficient):
                    column_reduce(P)
            else:
                assert is_column_proper(column_reduce(P).reduced)
            self.assert_matches_poly_oracle(P)

    @staticmethod
    def assert_matches_poly_oracle(P):
        # the weak Popov form and the Wolovich reduction in Poly arithmetic
        # reach different reduced bases of one span, with the same degrees
        try:
            want = poly_column_reduce(P)
        except RankDeficient:
            with pytest.raises(RankDeficient):
                column_reduce(P)
            return
        got = column_reduce(P)
        assert sorted(got.column_degrees) == sorted(want.column_degrees)
        assert got.column_degrees == got.reduced.column_degrees()
        assert rank(PolyMatrix.hstack(got.reduced, want.reduced)) == P.n

    def test_matches_poly_arithmetic_oracle(self):
        # rational coefficients, with a unimodular right factor raising the
        # column degrees
        rng = random.Random(71)
        for _ in range(80):
            m = rng.randint(2, 4)
            n = rng.randint(2, m)
            P = random_rational_matrix(rng, m, n, 2) @ random_unimodular(rng, n, ops=8)
            self.assert_matches_poly_oracle(P)


class TestReversal:
    def test_flip(self):
        assert reversal(M([[S, 1], [0, S]])) == M([[1, S], [0, 1]])

    def test_constant(self):
        C = M([[2, 3], [5, 7]])
        assert reversal(C) == C

    def test_involution_when_constant_term_nonzero(self):
        rng = random.Random(31)
        done = 0
        while done < 20:
            P = random_matrix(rng, 2, 3, 2)
            if all(e(0) == 0 for row in P.rows for e in row):
                continue
            assert reversal(reversal(P)) == P
            done += 1

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            reversal(PolyMatrix.zeros(2, 2))

    def test_value_at_zero_is_leading_matrix(self):
        P = M([[S * S + ONE, S], [1, 0]])
        R = reversal(P)
        lead = [[c[int(P.degree)] if len(c) > int(P.degree) else 0 for c in row] for row in
                [[e.coeffs for e in r] for r in P.rows]]
        assert [[e(0) for e in r] for r in R.rows] == [
            [Fraction(v) for v in row] for row in lead
        ]


def constant_invertible(rng: random.Random, m: int) -> PolyMatrix:
    """A unit lower times a unit upper triangular matrix of small constants."""
    def unit(lower):
        return PolyMatrix([[Poly.constant(1 if i == j else rng.randint(-2, 2)
                                          if (i > j) == lower else 0)
                            for j in range(m)] for i in range(m)], n=m)
    return unit(True) @ unit(False)


def with_column(K: PolyMatrix, j: int, col) -> PolyMatrix:
    return PolyMatrix([[col[i] if k == j else e for k, e in enumerate(row)]
                       for i, row in enumerate(K.rows)], n=K.n)


MINIMAL_BASIS_KINDS = ("minimal", "unimodular-left", "non-minimal", "rank-deficient",
                       "unimodular-right")


@hst.composite
def minimal_basis_candidates(draw):
    """(kind, K), K an m x r matrix, r <= m <= 6: a bidiagonal minimal basis
    B times a constant invertible C on the left (minimal), times a
    unimodular factor on the left (trivial Smith form), C B with a column
    times s - a (not minimal) or replaced by a multiple of another or zero
    (rank deficient), or B times a unimodular factor on the right, which
    keeps the span and can break column properness."""
    rng = random.Random(draw(hst.integers(0, 2 ** 16)))
    m = draw(hst.integers(1, 6))
    r = draw(hst.integers(1, m))
    degs = [0] * r if r == m else draw(hst.lists(hst.integers(0, 2), min_size=r, max_size=r))
    B = build_minimal_basis(degs, m)
    kind = draw(hst.sampled_from(MINIMAL_BASIS_KINDS))
    if kind == "unimodular-left":
        return kind, random_unimodular(rng, m, ops=4) @ B
    if kind == "unimodular-right":
        return kind, B @ random_unimodular(rng, r, ops=4)
    K = constant_invertible(rng, m) @ B
    j = draw(hst.integers(0, r - 1))
    if kind == "non-minimal":
        a = Poly.constant(draw(hst.integers(-2, 2)))
        K = with_column(K, j, [e * (S - a) for e in K.col(j)])
    elif kind == "rank-deficient":
        i = draw(hst.integers(0, r - 1))
        q = Poly([draw(hst.integers(-2, 2)) for _ in range(2)])
        K = with_column(K, j, [ZERO if i == j else e * q for e in K.col(i)])
    return kind, K


class TestMinimalBasisTest:
    @settings(max_examples=300, deadline=None)
    @given(minimal_basis_candidates())
    def test_matches_smith_oracle(self, case):
        # the row echelon test gives the Smith-form verdict, without a Smith
        # elimination
        kind, K = case
        want = smith_is_minimal_basis(K)
        with mock.patch.object(polymat, "_smith_core",
                               side_effect=AssertionError("_smith_core called")):
            got = is_minimal_basis(K)
        assert got == want
        if kind == "minimal":
            assert got[0]
        if kind in ("non-minimal", "rank-deficient"):
            assert not got[0]

    def test_nonconstant_first_pivot_ends_the_scan(self, monkeypatch):
        # every entry of the first column is a multiple of s - 1, so the
        # first pivot _clear leaves is nonconstant: one column step, no Smith
        B = constant_invertible(random.Random(8), 8) @ build_minimal_basis((1, 2, 0, 1), 8)
        K = with_column(B, 0, [e * (S - ONE) for e in B.col(0)])
        calls = []
        for name in ("_smith_core", "_clear"):
            real = getattr(polymat, name)
            monkeypatch.setattr(polymat, name, lambda *a, real=real, name=name: (
                calls.append(name), real(*a))[1])
        assert is_minimal_basis(K) == (False, (2, 2, 0, 1))
        assert calls == ["_clear"]
        monkeypatch.undo()
        assert smith_is_minimal_basis(K) == (False, (2, 2, 0, 1))

    def test_builder_shape(self):
        assert is_minimal_basis(M([[S * S, 0], [1, S], [0, 1]])) == (True, (2, 1))

    def test_rank_drop_at_zero(self):
        flag, _ = is_minimal_basis(M([[S], [S]]))
        assert not flag

    def test_tower_column(self):
        flag, degs = is_minimal_basis(M([[1], [S], [S * S]]))
        assert flag and degs == (2,)

    def test_not_column_proper(self):
        # trivial Smith form but P_h singular
        flag, _ = is_minimal_basis(M([[1, S], [0, 1]]))
        assert not flag

    def test_invariance_under_constant_invertible_left_factor(self):
        rng = random.Random(37)
        B = M([[S * S, 0], [1, S], [0, 1]])
        for _ in range(10):
            while True:
                C = PolyMatrix(
                    [[Poly.constant(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)],
                    n=3,
                )
                if not det(C).is_zero:
                    break
            flag, degs = is_minimal_basis(C @ B)
            assert flag and sorted(degs, reverse=True) == [2, 1]

    def test_unimodular_right_factor_keeps_span_not_membership(self):
        # the span is unchanged, but column properness can be destroyed:
        # reduction recovers a minimal basis of the same span
        from structura.extract import spans_equal

        B = M([[S * S, 0], [1, S], [0, 1]])
        U = M([[1, S], [0, 1]])
        skewed = B @ U
        flag, _ = is_minimal_basis(skewed)
        assert not flag
        recovered = column_reduce(skewed).reduced
        assert is_minimal_basis(recovered)[0]
        assert spans_equal(recovered, B)


class TestMobiusFrames:
    def test_constant_frame(self):
        C = M([[4]])
        assert mobius_frame(C, 0, 0) == C

    def test_monomial_collapse(self):
        assert mobius_frame(M([[S]]), 0, 1) == M([[1]])

    def test_shifted(self):
        assert mobius_frame(M([[S + ONE]]), 1, 1) == M([[S]])

    def test_double_frame_is_identity_at_zero(self):
        # at a = 0 the frame is a windowed reversal, an involution
        rng = random.Random(41)
        for _ in range(15):
            P = random_matrix(rng, 2, 2, 2)
            d = int(P.degree) + rng.randint(0, 1)
            assert mobius_frame(mobius_frame(P, 0, d), 0, d) == P

    def test_frame_then_inverse_frame_recovers(self):
        # inverse substitution: read coefficients in the (s - a) basis,
        # write them reversed in the standard basis
        def inverse_frame(F, a, d):
            def entry(e):
                shifted = e.shift(a)
                return Poly(
                    [shifted.coeff(d - j) for j in range(d + 1)]
                )

            return F.map_entries(entry)

        rng = random.Random(43)
        for _ in range(15):
            P = random_matrix(rng, 2, 2, 2)
            a = Fraction(rng.randint(-2, 2))
            d = int(P.degree)
            F = mobius_frame(P, a, d)
            assert inverse_frame(F, a, d) == P

    def test_matches_defining_sum(self):
        # sum_j P_j (s - a)^(d - j) with P = sum_j P_j s^j
        def by_definition(P, a, d):
            lin = Poly((-Fraction(a), 1))
            out = PolyMatrix.zeros(P.m, P.n)
            for j in range(d + 1):
                Pj = P.map_entries(lambda e: Poly.constant(e.coeff(j)))
                out = out + Pj.scale(lin ** (d - j))
            return out

        rng = random.Random(59)
        cases = [random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
                 for _ in range(8)]
        for P in cases + [PolyMatrix.zeros(2, 3)]:
            deg = int(P.degree) if not P.is_zero else 0
            for a in (0, 1, -2, Fraction(1, 3)):
                for d in (deg, deg + 2):
                    assert mobius_frame(P, a, d) == by_definition(P, a, d)
                if deg:
                    with pytest.raises(DegreeTooSmall):
                        mobius_frame(P, a, deg - 1)

    def test_frame_degree_too_small(self):
        with pytest.raises(DegreeTooSmall):
            mobius_frame(M([[S * S]]), 0, 1)

    def test_scale_basis_identity(self):
        assert scale_basis_mobius(PolyMatrix.identity(3), 5) == (
            PolyMatrix.identity(3)
        )

    def test_scale_basis_column(self):
        assert scale_basis_mobius(M([[S], [1]]), 0) == M([[1], [S]])

    def test_scale_basis_zero_column(self):
        Z = PolyMatrix.zeros(2, 1)
        with pytest.raises(DegreeMismatch, match="column 0"):
            scale_basis_mobius(Z, 1)

    def test_scale_basis_preserves_minimality_and_degrees(self):
        B = build_minimal_basis([1, 1], 3)
        out = scale_basis_mobius(B, 1)
        flag, degs = is_minimal_basis(out)
        assert flag and sorted(degs, reverse=True) == [1, 1]
