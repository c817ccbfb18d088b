"""Independent cross-checks that avoid the Smith-form machinery entirely.

Minimal indices are recovered from dimension counts of degree-bounded
polynomial solution spaces (constant block-convolution systems over Q), and
infinite orders from minor valuations; both routes share no code with the
extraction pipeline they validate. Where sympy is installed, both Smith paths
are also compared with its invariant factors over Q[s].
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from structura.qpoly import ONE, X, Poly, RatFn
from structura.polymat import PolyMatrix, invariant_factors, smith_form
from structura.extract import (
    RationalMatrix,
    extract_poly_structure,
    extract_rational_structure,
)
from conftest import random_low_rank_matrix, random_matrix

S = X


def _gauss_rank(rows) -> int:
    """Plain Gaussian elimination over Q, written here so the oracle shares
    nothing with the library's elimination code."""
    M = [list(r) for r in rows]
    if not M or not M[0]:
        return 0
    m, n = len(M), len(M[0])
    rank = 0
    col = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if M[i][col] != 0), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = Fraction(1) / M[rank][col]
        M[rank] = [v * inv for v in M[rank]]
        for i in range(m):
            if i != rank and M[i][col] != 0:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def poly_kernel_dim(P: PolyMatrix, delta: int) -> int:
    """Dimension over Q of {x polynomial vector, deg <= delta, P x = 0}.

    Stacking coefficients turns the product into a constant linear system:
    unknown block (j, t) multiplies coefficient e-t of entry (i, j) in the
    equation for coefficient e of row i.
    """
    dP = int(P.degree) if not P.is_zero else 0
    n_unknowns = P.n * (delta + 1)
    n_equations = P.m * (dP + delta + 1)
    rows = []
    for i in range(P.m):
        for e in range(dP + delta + 1):
            row = []
            for j in range(P.n):
                entry = P.rows[i][j]
                for t in range(delta + 1):
                    row.append(entry.coeff(e - t))
            rows.append(row)
    assert len(rows) == n_equations
    return n_unknowns - _gauss_rank(rows)


def indices_from_dim_counts(P: PolyMatrix, count: int):
    """Recover the minimal indices of the right null space from the jumps of
    delta -> dim of the degree-bounded kernel.

    With indices d_1 >= ... >= d_count, the dimension at degree delta equals
    sum over i of max(0, delta - d_i + 1).
    """
    if count == 0:
        return ()
    indices = []
    delta = 0
    prev = 0
    while len(indices) < count:
        cur = poly_kernel_dim(P, delta)
        jump = (cur - prev) - len(indices)
        indices.extend([delta] * jump)
        prev = cur
        delta += 1
        assert delta < 200, "runaway degree search"
    return tuple(sorted(indices, reverse=True))


class TestNullIndicesOracle:
    def test_right_and_left_minimal_indices(self):
        rng = random.Random(424242)
        done = 0
        while done < 30:
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            if rng.random() < 0.6:
                P = random_low_rank_matrix(rng, m, n, rng.randint(1, min(m, n)))
                if P.is_zero:
                    continue
            else:
                P = random_matrix(rng, m, n, 2)
            data = extract_poly_structure(P)
            want_right = indices_from_dim_counts(P, n - data.rank)
            want_left = indices_from_dim_counts(P.transpose(), m - data.rank)
            assert data.right_indices == want_right
            assert data.left_indices == want_left
            done += 1


@hst.composite
def small_matrices(draw):
    """Nonzero m x n matrices, 1 <= m, n <= 4, of degree <= 2 with integer
    coefficients in [-2, 2]: dense, or the product of an m x k and a k x n
    factor of degree <= 1, which has rank at most k."""
    m, n = draw(hst.integers(1, 4)), draw(hst.integers(1, 4))

    def factor(rows, cols, deg):
        entry = hst.lists(hst.integers(-2, 2), max_size=deg + 1).map(Poly)
        return PolyMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)], n=cols)

    if draw(hst.booleans()):
        P = factor(m, n, 2)
    else:
        k = draw(hst.integers(1, min(m, n)))
        P = factor(m, k, 1) @ factor(k, n, 1)
    assume(not P.is_zero)
    return P


# bidiagonal, so a minimal basis with column-space indices (1, 1, 1)
_BIDIAGONAL = PolyMatrix.from_scalar_rows([[S, 0, 0], [1, S, 0], [0, 1, S], [0, 0, 1]])


class TestSpanIndicesOracle:
    @settings(max_examples=200, deadline=None)
    @given(small_matrices())
    # rank 3 in four rows, which draws seldom reach: span indices (1, 1, 1)
    @example(_BIDIAGONAL)
    @example(_BIDIAGONAL @ PolyMatrix.from_scalar_rows(
        [[1, 0, S, 0], [0, 1, 1, 0], [0, 0, 1, S]]))
    def test_colspan_and_rowspan_without_smith(self, P):
        # two-step route: a spanning set of the left null space from the
        # convolution kernel at a safe degree bound, then the column space
        # as that spanning set's kernel
        data = extract_poly_structure(P)
        r = data.rank
        for transpose in (False, True):
            Q = P.transpose() if transpose else P
            mm = Q.m
            got = data.rowspan_indices if transpose else data.colspan_indices
            if r == mm:
                # full space: all indices zero
                assert got == (0,) * r
                continue
            bound = r * max(int(Q.degree), 0) + 1
            null_cols = _kernel_spanning_set(Q.transpose(), bound)
            NT = PolyMatrix(
                [[col[i] for col in null_cols] for i in range(mm)],
                n=len(null_cols),
            ).transpose()
            assert got == indices_from_dim_counts(NT, r)


def _kernel_spanning_set(P: PolyMatrix, delta: int):
    """Columns spanning the right null space of P: all stacked-coefficient
    kernel vectors up to the degree bound (not minimal, just spanning)."""
    dP = int(P.degree) if not P.is_zero else 0
    rows = []
    for i in range(P.m):
        for e in range(dP + delta + 1):
            row = []
            for j in range(P.n):
                entry = P.rows[i][j]
                for t in range(delta + 1):
                    row.append(entry.coeff(e - t))
            rows.append(row)
    # kernel basis over Q via RREF
    M = [list(r) for r in rows]
    ncols = P.n * (delta + 1)
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(M)) if M[i][col] != 0), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = Fraction(1) / M[rank][col]
        M[rank] = [v * inv for v in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][col] != 0:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        pivots.append(col)
        rank += 1
    pivset = set(pivots)
    out = []
    for free in range(ncols):
        if free in pivset:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for rr, pc in enumerate(pivots):
            vec[pc] = -M[rr][free]
        # unstack into a polynomial column
        col = []
        for j in range(P.n):
            col.append(Poly(vec[j * (delta + 1) : (j + 1) * (delta + 1)]))
        if any(not e.is_zero for e in col):
            out.append(col)
    return out


def _ratfn_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = RatFn(Poly())
    for i in range(n):
        e = rows[i][0]
        if e.is_zero:
            continue
        minor = [r[1:] for k, r in enumerate(rows) if k != i]
        term = e * _ratfn_det(minor)
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def _ratfn_degree(f: RatFn):
    """Degree at infinity: deg num - deg den (None for the zero function)."""
    if f.is_zero:
        return None
    return int(f.num.degree) - int(f.den.degree)


class TestInfiniteOrdersOracle:
    def test_order_sums_match_max_minor_degrees(self):
        # the cumulative invariant orders at infinity are minus the maximal
        # degree (valuation at infinity) over the minors of each order
        rng = random.Random(606060)
        dens = [ONE, S, S + ONE, S - ONE]
        done = 0
        while done < 25:
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            entries = [
                [
                    RatFn(
                        Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]),
                        rng.choice(dens),
                    )
                    for _ in range(n)
                ]
                for _ in range(m)
            ]
            R = RationalMatrix(entries, n=n)
            if R.is_zero:
                continue
            data = extract_rational_structure(R)
            for k in range(1, data.rank + 1):
                best = None
                for ridx in itertools.combinations(range(m), k):
                    for cidx in itertools.combinations(range(n), k):
                        sub = [[R.rows[i][j] for j in cidx] for i in ridx]
                        deg = _ratfn_degree(_ratfn_det(sub))
                        if deg is not None and (best is None or deg > best):
                            best = deg
                assert best is not None
                assert sum(data.inf_orders[:k]) == -best
            done += 1


class TestSmithAgainstSympy:
    def test_invariant_factors_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors as sympy_if

        s = sympy.symbols("s")

        def to_sympy(P):
            return sympy.Matrix(
                P.m,
                P.n,
                [
                    sum(c * s**k for k, c in enumerate(e.coeffs))
                    for row in P.rows
                    for e in row
                ],
            )

        def monic_from_sympy(expr):
            coeffs = sympy.Poly(expr, s, domain=sympy.QQ).all_coeffs()
            return Poly(
                [Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)]
            ).monic()

        rng = random.Random(909)
        for case in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            if case % 3:
                P = random_matrix(rng, m, n, 2)
            else:
                P = random_low_rank_matrix(rng, m, n, min(m, n, rng.randint(1, 2)))
            want = tuple(
                monic_from_sympy(a)
                for a in sympy_if(to_sympy(P), domain=sympy.QQ[s])
                if a != 0
            )
            assert invariant_factors(P) == want
            assert smith_form(P).diag == want
