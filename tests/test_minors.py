"""Bounded nonzero-minor selection and its brute-force oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from structura import jsonio, polymat, qpoly
from structura.errors import ParseError, SingularInput
from structura.qpoly import X, ZERO, Poly, RatFn
from structura.polymat import PolyMatrix, RationalMatrix, _DenseMatrix, det, rank
from structura.jsonio import poly_from_json
from structura.minors import (
    admissible_pairs,
    minor_at,
    select_nonzero_minor,
    star_dual,
)
from conftest import (
    FIRST_RANK_POINTS,
    cofactor_det,
    det_select_nonzero_minor,
    nested_sum_matrix,
    random_poly,
)

S = X
M = PolyMatrix.from_scalar_rows


def random_nonsingular(rng, r, max_deg=2):
    while True:
        P = PolyMatrix(
            [[random_poly(rng, max_deg, -2, 2) for _ in range(r)] for _ in range(r)],
            n=r,
        )
        if not det(P).is_zero:
            return P


class TestStarDual:
    def test_examples(self):
        assert star_dual((1, 3, 4), 5) == (2, 3, 5)
        assert star_dual((1, 2, 3), 5) == (3, 4, 5)
        assert star_dual((2,), 4) == (3,)

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(20):
            r = rng.randint(1, 6)
            k = rng.randint(1, r)
            Z = tuple(sorted(rng.sample(range(1, r + 1), k)))
            assert star_dual(star_dual(Z, r), r) == Z


class TestSelect:
    def test_full_order_is_everything(self):
        rng = random.Random(7)
        E = random_nonsingular(rng, 4)
        assert select_nonzero_minor(E, [1, 2, 3, 4]) == (
            (1, 2, 3, 4),
            (1, 2, 3, 4),
        )

    def test_identity_single_index(self):
        I, J = select_nonzero_minor(PolyMatrix.identity(3), [1])
        assert I == (1,) and J == (1,)
        assert minor_at(PolyMatrix.identity(3), I, J) == Poly([1])

    def test_identity_bounds_hold_for_every_z(self):
        E = PolyMatrix.identity(4)
        for k in range(1, 5):
            for Z in itertools.combinations(range(1, 5), k):
                I, J = select_nonzero_minor(E, Z)
                zs = star_dual(Z, 4)
                assert all(i <= b for i, b in zip(I, zs))
                assert all(j <= b for j, b in zip(J, Z))
                assert not minor_at(E, I, J).is_zero

    def test_chain_reused_for_equal_matrices(self):
        from structura.minors import _dependency_chain

        E = random_nonsingular(random.Random(17), 5)
        twin = PolyMatrix(E.rows, n=E.n)  # equal, but another object
        _dependency_chain.cache_clear()
        select_nonzero_minor(E, [1, 3])
        select_nonzero_minor(twin, [2, 4])
        info = _dependency_chain.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_chain_cache_keyed_on_integer_rows(self, monkeypatch):
        from structura.minors import _dependency_chain

        def unhashed(*args):
            raise AssertionError("the chain cache hashed or compared a Poly or PolyMatrix")

        E = random_nonsingular(random.Random(23), 5)
        # row 0 over 2: the same integer rows over their lcms, so the same V
        half = PolyMatrix([[e * Poly([Fraction(1, 2)]) for e in E.rows[0]], *E.rows[1:]])
        other = random_nonsingular(random.Random(29), 5)
        for name, cls in (("__hash__", PolyMatrix), ("__eq__", PolyMatrix),
                          ("__hash__", Poly)):
            monkeypatch.setattr(cls, name, unhashed)
        _dependency_chain.cache_clear()
        first = [select_nonzero_minor(E, Z) for Z in ([1, 3], [2], [1, 3])]
        assert _dependency_chain.cache_info()[:2] == (2, 1)  # (hits, misses)
        assert select_nonzero_minor(half, [1, 3]) == first[0]
        assert _dependency_chain.cache_info()[:2] == (3, 1)
        select_nonzero_minor(other, [1, 3])
        assert _dependency_chain.cache_info()[:2] == (3, 2)

    def test_rational_matrix_rejected(self):
        R = RationalMatrix([[RatFn(Poly([1]), S), RatFn(ZERO)], [RatFn(ZERO), RatFn(S)]])
        with pytest.raises(ParseError, match="^minor-select needs a polynomial matrix$"):
            select_nonzero_minor(R, [1])

    def test_singular_rejected(self):
        with pytest.raises(SingularInput):
            select_nonzero_minor(M([[S, S], [S, S]]), [1])

    def test_non_square_rejected(self):
        with pytest.raises(SingularInput):
            select_nonzero_minor(M([[S, S]]), [1])

    def test_bad_index_tuples(self):
        E = PolyMatrix.identity(3)
        for bad in ([], [0], [1, 1], [2, 1], [4]):
            with pytest.raises(ParseError):
                select_nonzero_minor(E, bad)

    @pytest.mark.parametrize("bad", [[2.7], ["2"], [True, 2.0]])
    def test_indices_that_are_not_plain_ints(self, bad):
        # int() would read these as (2,), (2,) and (1, 2)
        with pytest.raises(ParseError, match="integers"):
            select_nonzero_minor(PolyMatrix.identity(3), bad)

    def test_worked_bounds_on_random_five_by_five(self):
        rng = random.Random(11)
        for _ in range(5):
            E = random_nonsingular(rng, 5)
            I, J = select_nonzero_minor(E, [1, 3, 4])
            assert all(i <= b for i, b in zip(I, (2, 3, 5)))
            assert all(j <= b for j, b in zip(J, (1, 3, 4)))
            I2, J2 = select_nonzero_minor(E, [1, 2, 3])
            assert all(i <= b for i, b in zip(I2, (3, 4, 5)))
            assert all(j <= b for j, b in zip(J2, (1, 2, 3)))

    def test_agrees_with_brute_force_oracle(self):
        rng = random.Random(13)
        for _ in range(6):
            r = rng.randint(2, 4)
            E = random_nonsingular(rng, r, max_deg=1)
            for k in range(1, r + 1):
                for Z in itertools.combinations(range(1, r + 1), k):
                    found = admissible_pairs(E, Z)
                    assert found, "oracle found no admissible pair"
                    assert select_nonzero_minor(E, Z) in found


# s(s^2 - 1)(s^2 - 4) vanishes at 0, 1, -1, 2 and -2, so a 5x5 with this
# determinant looks singular at each of those small integer points (the
# first five of the scan oracle scanned_rank); rank reads it at one point
# past the Cauchy bound of its minors instead
VANISHING_DIAG = [S - Poly([c]) for c in FIRST_RANK_POINTS]


class TestEvaluationPath:
    def test_determinant_vanishing_at_first_points_is_nonsingular(self):
        E = nested_sum_matrix(VANISHING_DIAG)
        d = det(E)
        assert d == S * (S * S - Poly([1])) * (S * S - Poly([4]))
        assert all(d(x) == 0 for x in FIRST_RANK_POINTS)
        for k in range(1, 6):
            for Z in itertools.combinations(range(1, 6), k):
                I, J = select_nonzero_minor(E, Z)
                assert not minor_at(E, I, J).is_zero
                assert (I, J) == det_select_nonzero_minor(E, Z)

    def test_rank_five_six_by_six_is_singular(self):
        E = nested_sum_matrix(VANISHING_DIAG + [ZERO])
        assert det(E).is_zero and rank(E) == 5
        for Z in ([1], [2, 5], [1, 2, 3, 4, 5, 6]):
            with pytest.raises(SingularInput):
                select_nonzero_minor(E, Z)

    def test_agrees_with_determinant_selection(self):
        rng = random.Random(19)
        for t in range(40):
            r = 3 + t % 4
            E = random_nonsingular(rng, r, max_deg=1)
            for k in range(1, r + 1):
                for Z in itertools.combinations(range(1, r + 1), k):
                    assert select_nonzero_minor(E, Z) == det_select_nonzero_minor(E, Z)


def rows_built(E: PolyMatrix) -> bool:
    """Whether the rows slot of E is set, read past PolyMatrix.__getattr__,
    which would build the rows of a matrix read as integer arrays."""
    try:
        _DenseMatrix.rows.__get__(E)
    except AttributeError:
        return False
    return True


def nonsingular_arrays(rng, r):
    """The entries of an r x r nonsingular matrix as integer coefficient
    lists without trailing zeros, row-major, some of them empty."""
    while True:
        entries = [[] if rng.random() < 0.2 else
                   list(Poly([rng.randint(-3, 3) for _ in range(3)]).numerators)
                   for _ in range(r * r)]
        E = PolyMatrix([[Poly(c) for c in entries[k:k + r]] for k in range(0, r * r, r)])
        if not det(E).is_zero:
            return entries


def spelled(entries, how):
    """The JSON entries of one matrix, spelled how."""
    if how == "strings":
        return [[str(c) for c in e] for e in entries]
    if how == "signs":  # "+" signs and leading zeros, which int() reads
        return [[f"+00{c}" if c >= 0 else f"-0{-c}" for c in e] for e in entries]
    if how == "trailing":
        return [e + [0, 0] for e in entries]
    return entries


class TestIntegerForm:
    """A matrix read from integer arrays holds its integer form and no Poly
    until its rows are read; the chain cache is keyed on that form."""

    @pytest.mark.parametrize("how", ["ints", "strings"])
    def test_no_poly_on_the_minor_select_path(self, how, monkeypatch):
        entries = nonsingular_arrays(random.Random(31), 5)
        made = []
        real = qpoly._make

        def counted(nums, den):
            made.append(nums)
            return real(nums, den)

        for module in (qpoly, polymat, jsonio):
            monkeypatch.setattr(module, "_make", counted)
        E = jsonio.matrix_from_json({"m": 5, "n": 5, "entries": spelled(entries, how)})
        I, J = select_nonzero_minor(E, [1, 3])
        assert rank(E) == 5
        assert made == [] and not rows_built(E)
        d = det(E)
        assert made == [d.numerators] and not rows_built(E)
        monkeypatch.undo()
        assert E.rows == tuple(tuple(poly_from_json(e) for e in entries[k:k + 5])
                               for k in range(0, 25, 5))
        assert d == cofactor_det(E.rows) and not minor_at(E, I, J).is_zero

    def test_each_matrix_gets_one_cache_key(self):
        from structura.minors import _dependency_chain

        entries = nonsingular_arrays(random.Random(37), 7)
        mats = [jsonio.matrix_from_json({"m": 7, "n": 7, "entries": spelled(entries, how)})
                for how in ("ints", "strings", "signs", "trailing")]
        mats.append(PolyMatrix.from_scalar_rows([entries[k:k + 7] for k in range(0, 49, 7)]))
        _dependency_chain.cache_clear()
        found = {select_nonzero_minor(E, [2, 5, 6]) for E in mats}
        assert len(found) == 1 and _dependency_chain.cache_info().currsize == 1
        assert len({E._ints for E in mats}) == 1
        assert len({hash(E) for E in mats}) == 1
        assert all(E == mats[0] for E in mats)

    def test_rational_coefficients_take_the_poly_path(self):
        entries = nonsingular_arrays(random.Random(41), 6)
        # every coefficient over 6: the integer matrix over 6
        R = jsonio.matrix_from_json(
            {"m": 6, "n": 6, "entries": [[f"{c}/6" for c in e] for e in entries]})
        E = jsonio.matrix_from_json({"m": 6, "n": 6, "entries": entries})
        assert rows_built(R) and not rows_built(E)
        assert R == E.scale(Poly([Fraction(1, 6)]))
        for Z in ([1], [2, 4], [1, 5, 6], [3, 4, 5, 6]):
            assert select_nonzero_minor(R, Z) == select_nonzero_minor(E, Z)
