"""Scalar layer: polynomials, factorization, rational functions."""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

try:
    import sympy
except ImportError:  # the comparison with sympy runs where it is installed
    sympy = None

from structura.errors import BothZero, DivisionByZeroPoly, RootAtA
from structura.qpoly import (
    NEG_INF,
    ONE,
    X,
    ZERO,
    Poly,
    RatFn,
    _linear_valuation,
    atom_valuation,
    coprime_basis,
    mobius_tilde,
    poly_gcd,
    rational_roots,
    split_over_rationals,
)

from conftest import RefPoly, divisor_split_over_rationals, fraction_poly_str

S = X
TWO = Poly.constant(2)


def lin(root) -> Poly:
    return Poly((-Fraction(root), 1))


small_polys = hst.lists(
    hst.integers(min_value=-4, max_value=4), min_size=0, max_size=7
).map(Poly)


@hst.composite
def rational_root_polys(draw):
    """A negative or fractional leading coefficient times linear factors
    (q*s - p)^k with |p|, |q| <= 50, a power of s and, sometimes, a quadratic
    with negative discriminant, irreducible over Q."""
    lead = Fraction(draw(hst.integers(-6, 6).filter(bool)), draw(hst.integers(1, 6)))
    p = Poly.constant(lead) * S ** draw(hst.integers(0, 2))
    for _ in range(draw(hst.integers(0, 3))):
        num, den = draw(hst.integers(-50, 50)), draw(hst.integers(1, 50))
        p = p * Poly((-num, den)) ** draw(hst.integers(1, 3))
    if draw(hst.booleans()):
        b = draw(hst.integers(-5, 5))
        p = p * Poly((draw(hst.integers(b * b // 4 + 1, b * b // 4 + 20)), b, 1))
    return p


def sympy_rational_roots(p: Poly) -> tuple:
    """(root, multiplicity) of the linear factors of sympy's factorization of
    p over QQ, ascending."""
    s = sympy.Symbol("s")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    _, facs = sympy.Poly(coeffs, s, domain=sympy.QQ).factor_list()
    out = []
    for g, k in facs:
        if g.degree() == 1:
            c1, c0 = g.all_coeffs()
            root = -c0 / c1
            out.append((Fraction(int(root.p), int(root.q)), k))
    return tuple(sorted(out))


class TestPolyBasics:
    def test_zero_degree_sentinel(self):
        assert Poly().degree == NEG_INF
        assert Poly().degree != 0
        assert Poly([5]).degree == 0

    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])

    def test_coefficients_stay_reduced(self):
        p = Poly([Fraction(2, 4), Fraction(6, 3)])
        assert p.coeffs == (Fraction(1, 2), Fraction(2))
        assert all(c.denominator > 0 for c in p.coeffs)

    def test_eval(self):
        p = S * S - S.scale(3) + TWO
        assert p(1) == 0 and p(2) == 0 and p(0) == 2

    def test_reverse(self):
        p = Poly([3, 0, 2])  # 2s^2 + 3
        assert p.reverse(2) == Poly([2, 0, 3])
        # a frame above deg(p) pads with powers of s: s^4 * p(1/s)
        assert p.reverse(4) == Poly([0, 0, 2, 0, 3])
        assert (S * S).reverse(3) == S
        assert Poly().reverse(3) == Poly()
        with pytest.raises(ValueError):
            p.reverse(1)


def golden_analyze_polys():
    """Every invariant factor, numerator and denominator of the seed-0
    analyze pass in bench/golden, as Polys."""
    doc = json.loads((Path(__file__).parents[1] / "bench/golden/analyze.json").read_text())
    return [Poly([Fraction(c) for c in p])
            for item in doc["items"].values()
            for key in ("invariant_factors", "numerators", "denominators")
            for p in item["expect"].get(key, ())]


class TestStr:
    def test_examples(self):
        assert str(Poly()) == "0"
        assert str(Poly([Fraction(-1, 2), 0, 1])) == "s^2 - 1/2"
        assert str(Poly([3, -1, Fraction(-4, 6)])) == "-2/3*s^2 - s + 3"
        assert str(Poly([0, Fraction(1, 3)])) == "1/3*s"

    def test_golden_invariant_factors_print_as_fractions(self):
        polys = golden_analyze_polys()
        assert len(polys) > 300 and any(p.denominator > 1 for p in polys)
        for p in polys:
            assert str(p) == fraction_poly_str(p)

    @settings(max_examples=200, deadline=None)
    @given(hst.lists(hst.fractions(max_denominator=12), max_size=6))
    def test_matches_fraction_formatting(self, cs):
        p = Poly(cs)
        assert str(p) == fraction_poly_str(p)


class TestDivmod:
    def test_single_step(self):
        q, r = divmod(S * S + ONE, S)
        assert q == S and r == ONE

    def test_identity_divisor(self):
        p = Poly([3, 0, -2, 1])
        assert divmod(p, ONE) == (p, Poly())

    def test_cubic_case(self):
        q, r = divmod(Poly([5, -2, 0, 1]), Poly([-1, 0, 1]))
        assert q == S and r == Poly([5, -1])

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZeroPoly):
            divmod(S, Poly())

    @settings(max_examples=80, deadline=None)
    @given(small_polys, small_polys)
    def test_reconstruction(self, a, b):
        if b.is_zero:
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


small_fractions = hst.builds(Fraction, hst.integers(-6, 6), hst.integers(1, 4))
coeff_lists = hst.lists(small_fractions, max_size=5)
ops = hst.lists(
    hst.tuples(
        hst.sampled_from(
            ["add", "sub", "mul", "divmod", "gcd", "monic", "reverse", "shift", "eval"]
        ),
        hst.integers(0, 10**6),
        hst.integers(0, 10**6),
        hst.sampled_from(["as is", "monic", "negated", "scaled"]),
        small_fractions,
    ),
    max_size=14,
)


def check_pair(p: Poly, ref: RefPoly):
    assert p.coeffs == ref.coeffs
    assert p.denominator > 0
    assert math.gcd(*p.numerators, p.denominator) == 1


class TestReferenceOracle:
    @settings(max_examples=150, deadline=None)
    @given(hst.lists(coeff_lists, min_size=1, max_size=3), ops)
    def test_same_results_as_fraction_reference(self, starts, steps):
        pool = [(Poly(cs), RefPoly(cs)) for cs in starts]
        for p, ref in pool:
            check_pair(p, ref)
        for kind, i, j, divisor_form, c in steps:
            (a, ra), (b, rb) = pool[i % len(pool)], pool[j % len(pool)]
            if kind == "mul" and len(ra.coeffs) + len(rb.coeffs) > 24:
                continue  # keep repeated products small
            if kind in ("add", "sub", "mul"):
                op = {"add": "__add__", "sub": "__sub__", "mul": "__mul__"}[kind]
                new = [(getattr(a, op)(b), getattr(ra, op)(rb))]
            elif kind == "divmod":
                if b.is_zero:
                    continue
                if divisor_form == "monic":
                    b, rb = b.monic(), rb.monic()
                elif divisor_form == "negated":
                    b, rb = -b.monic(), -rb.monic()
                elif divisor_form == "scaled" and c:
                    b, rb = b.scale(c), rb * RefPoly((c,))
                (q, r), (rq, rr) = divmod(a, b), divmod(ra, rb)
                new = [(q, rq), (r, rr)]
            elif kind == "gcd":
                if a.is_zero and b.is_zero:
                    continue
                new = [(poly_gcd(a, b), ra.gcd(rb))]
            elif kind == "monic":
                new = [(a.monic(), ra.monic())]
            elif kind == "reverse":
                deg = max(len(ra.coeffs) - 1, 0) + j % 3
                new = [(a.reverse(deg), ra.reverse(deg))]
            elif kind == "shift":
                new = [(a.shift(c), ra.shift(c))]
            else:
                assert a(c) == ra(c)
                continue
            for p, ref in new:
                check_pair(p, ref)
            pool.extend(new)
        for p, ref in pool:
            for q, rq in pool:
                assert (p == q) == (ref.coeffs == rq.coeffs)
                if p == q:
                    assert hash(p) == hash(q)
                assert (p.sort_key() < q.sort_key()) == (ref.sort_key() < rq.sort_key())


class TestGcd:
    def test_simple(self):
        assert poly_gcd(S * S - ONE, S - ONE) == S - ONE

    def test_gcd_with_zero(self):
        assert poly_gcd(Poly([2, 2]), Poly()) == S + ONE

    def test_shared_factor_only(self):
        a = lin(1) ** 2 * lin(2)
        b = lin(1) * lin(3)
        assert poly_gcd(a, b) == lin(1)

    def test_both_zero(self):
        with pytest.raises(BothZero):
            poly_gcd(Poly(), Poly())

    @settings(max_examples=80, deadline=None)
    @given(small_polys, small_polys)
    def test_divides_both_and_is_maximal(self, a, b):
        if a.is_zero and b.is_zero:
            return
        g = poly_gcd(a, b)
        assert (a % g).is_zero and (b % g).is_zero
        # any common divisor from a small pool divides g
        for c in (S, S - ONE, S + ONE):
            if not a.is_zero and not (a % c).is_zero:
                continue
            if not b.is_zero and not (b % c).is_zero:
                continue
            assert (g % c).is_zero


class TestSplit:
    def test_two_roots(self):
        f = split_over_rationals(S * S - ONE)
        assert dict(f.factors) == {Fraction(1): 1, Fraction(-1): 1}
        assert f.cofactor == ONE

    def test_no_rational_roots(self):
        f = split_over_rationals(Poly([1, 0, 2, 0, 1]))
        assert f.factors == ()
        assert f.cofactor == Poly([1, 0, 2, 0, 1])
        assert not f.is_split

    def test_zero_root_multiplicity(self):
        f = split_over_rationals(Poly([0, 0, -1, 1]))
        assert dict(f.factors) == {Fraction(0): 2, Fraction(1): 1}
        assert f.cofactor == ONE

    def test_multiplicities_of_several_roots(self):
        half = Poly([Fraction(-1, 2), 1])
        p = S * half**3 * (S + Poly.constant(2)) ** 2
        f = split_over_rationals(p)
        assert f.factors == ((Fraction(-2), 2), (Fraction(0), 1), (Fraction(1, 2), 3))
        assert f.leading == 1 and f.cofactor == ONE

    def test_each_root_divided_out_once(self, monkeypatch):
        # one integer valuation per nonzero root, which hands back its
        # quotient, so no root is divided again; no Poly division at all
        import structura.qpoly as qpoly

        valuations, divisions = [], []
        valuation, divmod_ = qpoly._linear_valuation, Poly.__divmod__
        monkeypatch.setattr(qpoly, "_linear_valuation",
                            lambda nums, a, b: valuations.append((a, b)) or valuation(nums, a, b))
        monkeypatch.setattr(Poly, "__divmod__", lambda a, b: divisions.append(b) or divmod_(a, b))
        split_over_rationals(S * Poly([Fraction(-1, 2), 1]) ** 3 * (S + Poly.constant(2)) ** 2)
        assert valuations == [(-2, 1), (1, 2)]
        assert divisions == []

    def test_valuation_quotient(self):
        half = Poly([Fraction(-1, 2), 1])
        p = half**3 * (S + ONE)
        assert atom_valuation(p, half) == (3, S + ONE)
        assert atom_valuation(p, S) == (0, p)

    def test_fractional_roots_and_leading(self):
        p = Poly([1, -8, 12])  # 12(s - 1/2)(s - 1/6)
        f = split_over_rationals(p)
        assert f.leading == 12
        assert dict(f.factors) == {Fraction(1, 2): 1, Fraction(1, 6): 1}

    @settings(max_examples=60, deadline=None)
    @given(small_polys)
    def test_expand_round_trip(self, p):
        if p.is_zero:
            return
        assert split_over_rationals(p).expand() == p

    @settings(max_examples=80, deadline=None)
    @given(rational_root_polys())
    @example(S * lin(Fraction(1, 2)))  # y = 2s puts the root 1/2 at y = 1, a midpoint
    @example(lin(7) * lin(-7))
    def test_matches_divisor_oracle_and_sympy(self, p):
        got = split_over_rationals(p)
        assert got == divisor_split_over_rationals(p)
        assert got.expand() == p
        if sympy is not None:
            assert got.factors == sympy_rational_roots(p)

    @settings(max_examples=80, deadline=None)
    @given(rational_root_polys())
    @example(Poly([0, 0, -1, 1]))
    @example(Poly.constant(Fraction(-3, 2)))
    def test_rational_roots_are_the_split_roots(self, p):
        assert rational_roots(p) == [root for root, _ in split_over_rationals(p).factors]

    def test_rational_roots_count_no_multiplicity(self, monkeypatch):
        import structura.qpoly as qpoly

        def valuation(*args):
            raise AssertionError("rational_roots counted a multiplicity")

        monkeypatch.setattr(qpoly, "_linear_valuation", valuation)
        p = S * S * Poly([Fraction(-1, 2), 1]) ** 3 * (S + Poly.constant(2))
        assert rational_roots(p.scale(Fraction(-2, 3))) == [-2, 0, Fraction(1, 2)]
        assert rational_roots(Poly([1, 0, 2, 0, 1])) == []
        with pytest.raises(ValueError):
            rational_roots(ZERO)

    def test_large_root_pair(self):
        # the divisor oracle would try every divisor of (10^18 + 9)^2
        r = 10**18 + 9
        p = S * S - Poly.constant(r * r)
        got = split_over_rationals(p)
        assert got.factors == ((Fraction(-r), 1), (Fraction(r), 1)) and got.is_split
        if sympy is not None:
            assert got.factors == sympy_rational_roots(p)

    @pytest.mark.parametrize("c", [10**18 + 3, 10**30 + 7])
    def test_large_constant_without_roots_is_fast(self, c):
        t0 = time.perf_counter()
        got = split_over_rationals(Poly([c, 0, 1]))
        assert time.perf_counter() - t0 < 0.5
        assert got.factors == () and got.cofactor == Poly([c, 0, 1])

    @pytest.mark.parametrize("nums, a, b, want", [
        ((0, 0, 1), 0, 1, (2, [1])),
        ((-1, 2), 1, 2, (1, [1])),
        ((1, 0, 1), 1, 1, (0, (1, 0, 1))),
        ((2, -3, 1), 3, 2, (0, (2, -3, 1))),  # (s - 1)(s - 2) has no root 3/2
        ((-4, 4, 3, -4, 1), 2, 1, (2, [-1, 0, 1])),
    ])
    def test_linear_valuation(self, nums, a, b, want):
        assert _linear_valuation(nums, a, b) == want


class TestMobiusTilde:
    def test_linear_at_zero(self):
        t, c = mobius_tilde(S - ONE, 0)
        assert t == Poly([1, -1]) and c == Fraction(-1)

    def test_degree_zero(self):
        t, c = mobius_tilde(ONE, 7)
        assert t == ONE and c == 1

    def test_quadratic(self):
        t, c = mobius_tilde(Poly([2, -3, 1]), 0)
        assert t == Poly([1, -3, 2]) and c == 2
        # roots 1, 2 map to 1, 1/2 under x -> 1/x
        assert t(1) == 0 and t(Fraction(1, 2)) == 0

    def test_root_at_point(self):
        with pytest.raises(RootAtA):
            mobius_tilde(S - ONE, 1)

    def test_double_transform_recovers(self):
        rng = random.Random(7)
        for _ in range(40):
            deg = rng.randint(1, 6)
            p = ONE
            for _ in range(deg):
                p = p * lin(rng.randint(-2, 2))
            a = Fraction(rng.randint(3, 5))  # outside the root pool
            t, c = mobius_tilde(p, a)
            # invert: q(s) = s^deg * t(1/(s-a)), normalized monic, recovers p
            back = Poly(
                [t.coeff(deg - j) for j in range(deg + 1)]
            )  # plain reversal
            back = back.shift(-a).monic()
            assert back == p


class TestRatFn:
    def test_canonical_form(self):
        f = RatFn(Poly([0, 2]), Poly([0, 0, 4]))
        assert f.num == Poly([Fraction(1, 2)]) and f.den == S

    def test_zero(self):
        z = RatFn(Poly(), S)
        assert z.is_zero and z.den == ONE

    def test_arithmetic(self):
        half = RatFn(ONE, S)
        assert half + half == RatFn(TWO, S)
        assert half * half == RatFn(ONE, S * S)
        assert (half / half) == RatFn(ONE)

    def test_gcd_reduced_invariant(self):
        f = RatFn((S - ONE) * S, (S - ONE) * (S + ONE))
        assert poly_gcd(f.num, f.den) == ONE
        assert f.den.is_monic


class TestCoprimeBasis:
    def test_refinement(self):
        atoms = coprime_basis([S * S * (S - ONE), S * (S - ONE) ** 2])
        assert atoms == [S - ONE, S]

    def test_exact_valuations(self):
        rng = random.Random(3)
        for _ in range(30):
            polys = []
            for _ in range(rng.randint(1, 4)):
                p = ONE
                for _ in range(rng.randint(1, 4)):
                    p = p * lin(rng.randint(-1, 1))
                polys.append(p)
            atoms = coprime_basis(polys)
            for p in polys:
                recon = ONE
                for at in atoms:
                    recon = recon * at ** atom_valuation(p, at)[0]
                assert recon == p.monic()
