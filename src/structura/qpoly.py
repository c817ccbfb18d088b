"""Exact scalar arithmetic over Q: polynomials, factored forms, rational functions.

Every value here is immutable after construction and safe to share across
threads. The degree of the zero polynomial is the sentinel NEG_INF.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import BothZero, DivisionByZeroPoly, RootAtA, require

NEG_INF = float("-inf")

Scalar = Union[int, Fraction, str]


def as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational scalar")


class Poly:
    """Univariate polynomial over Q, coefficients stored ascending by power."""

    __slots__ = ("coeffs",)

    coeffs: tuple

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: Scalar) -> "Poly":
        return Poly((c,))

    @staticmethod
    def monomial(c: Scalar, k: int) -> "Poly":
        return Poly((0,) * k + (c,))

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lc(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __call__(self, x: Scalar) -> Fraction:
        x = as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Poly(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c: Scalar) -> "Poly":
        c = as_fraction(c)
        if c == 0:
            return Poly()
        return Poly(tuple(c * x for x in self.coeffs))

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other: "Poly"):
        if other.is_zero:
            raise DivisionByZeroPoly("division by the zero polynomial")
        if self.is_zero or len(self.coeffs) < len(other.coeffs):
            return Poly(), self
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        inv_lc = 1 / other.coeffs[-1]
        quo = [Fraction(0)] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                q = c * inv_lc
                quo[i - db] = q
                for j, bc in enumerate(other.coeffs):
                    rem[i - db + j] -= q * bc
        return Poly(quo), Poly(rem[:db])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        return self.scale(1 / self.coeffs[-1])

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def shift(self, a: Scalar) -> "Poly":
        """Compose with s + a, i.e. return p(s + a)."""
        a = as_fraction(a)
        if a == 0:
            return self
        lin = Poly((a, 1))
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * lin + Poly.constant(c)
        return acc

    def reverse(self, deg: int) -> "Poly":
        """s^deg * p(1/s): the coefficients read backwards in a frame of
        degree deg, which must be at least deg(p)."""
        if deg < len(self.coeffs) - 1:
            raise ValueError(f"reversal degree {deg} is below the degree of {self}")
        pad = (Fraction(0),) * (deg + 1 - len(self.coeffs))
        return Poly(pad + self.coeffs[::-1])

    def shift_down(self, k: int) -> "Poly":
        """Divide by s^k assuming the first k coefficients vanish."""
        require(all(c == 0 for c in self.coeffs[:k]),
                "shift_down past a nonzero coefficient")
        return Poly(self.coeffs[k:])

    # -- comparisons and hashing -------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def sort_key(self):
        return (len(self.coeffs), self.coeffs)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "s" if k == 1 else f"s^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Poly({str(self)})"


ZERO = Poly()
ONE = Poly((1,))
X = Poly((0, 1))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; raises BothZero on gcd(0, 0)."""
    if a.is_zero and b.is_zero:
        raise BothZero("gcd of two zero polynomials is undefined")
    x, y = a, b
    while not y.is_zero:
        x, y = y, (x % y).monic()
    return x.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return ZERO
    return ((a * b) // poly_gcd(a, b)).monic()


def divides(a: Poly, b: Poly) -> bool:
    """True when a divides b exactly (everything divides 0)."""
    if b.is_zero:
        return True
    if a.is_zero:
        return False
    return (b % a).is_zero


class FactoredPoly:
    """Leading coefficient, rational linear factors, and a root-free cofactor.

    expand() == leading * prod (s - root)^mult * cofactor, with the cofactor
    monic and free of rational roots.
    """

    __slots__ = ("leading", "factors", "cofactor")

    def __init__(self, leading: Scalar, factors, cofactor: Poly = ONE):
        self.leading = as_fraction(leading)
        self.factors = tuple((as_fraction(r), int(m)) for r, m in factors)
        self.cofactor = cofactor
        if not cofactor.is_monic:
            raise ValueError("cofactor must be monic")
        roots = [r for r, _ in self.factors]
        if len(set(roots)) != len(roots):
            raise ValueError("repeated roots in factor list")
        if any(m <= 0 for _, m in self.factors):
            raise ValueError("multiplicities must be positive")

    @property
    def is_split(self) -> bool:
        """True when the cofactor is trivial, i.e. the polynomial splits over Q."""
        return self.cofactor == ONE

    def expand(self) -> Poly:
        p = Poly.constant(self.leading)
        for root, mult in self.factors:
            p = p * (Poly((-root, 1)) ** mult)
        return p * self.cofactor

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FactoredPoly)
            and self.leading == other.leading
            and sorted(self.factors) == sorted(other.factors)
            and self.cofactor == other.cofactor
        )

    def __hash__(self):
        return hash((self.leading, tuple(sorted(self.factors)), self.cofactor))

    def __repr__(self) -> str:
        parts = [str(self.leading)]
        for r, m in self.factors:
            parts.append(f"(s - {r})^{m}")
        if self.cofactor != ONE:
            parts.append(f"[{self.cofactor}]")
        return "FactoredPoly(" + " * ".join(parts) + ")"


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _rational_root_candidates(p: Poly):
    """Candidate rational roots of p via divisors of its extreme coefficients."""
    lcm = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * lcm) for c in p.coeffs]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    a0, an = ints[0], ints[-1]
    cands = set()
    for num in _divisors(a0):
        for den in _divisors(an):
            cands.add(Fraction(num, den))
            cands.add(Fraction(-num, den))
    return sorted(cands)


def root_multiplicity(p: Poly, root: Scalar) -> int:
    """Multiplicity of a rational root, by repeated exact division."""
    root = as_fraction(root)
    lin = Poly((-root, 1))
    mult = 0
    while not p.is_zero and p(root) == 0:
        p = p // lin
        mult += 1
    return mult


def split_over_rationals(p: Poly) -> FactoredPoly:
    """Peel off every rational root (with exact multiplicity) of a nonzero p."""
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    leading = p.lc
    q = p.monic()
    factors = []
    v = 0
    while v < len(q.coeffs) and q.coeffs[v] == 0:
        v += 1
    if v:
        factors.append((Fraction(0), v))
        q = q.shift_down(v)
    if q.degree >= 1:
        sf = q // poly_gcd(q, q.derivative()) if q.degree >= 2 else q
        for cand in _rational_root_candidates(sf):
            if sf(cand) == 0:
                mult = root_multiplicity(q, cand)
                factors.append((cand, mult))
                q = q // (Poly((-cand, 1)) ** mult)
    return FactoredPoly(leading, sorted(factors), q.monic())


def mobius_tilde(p: Poly, a: Scalar):
    """Reverse p in the (s - a) basis: returns (s^deg(p) * p(1/s + a), p(a)).

    Requires p monic with p(a) != 0; the result has the same degree as p,
    constant term 1, and leading coefficient p(a).
    """
    if p.is_zero or not p.is_monic:
        raise ValueError("mobius_tilde requires a monic polynomial")
    a = as_fraction(a)
    pa = p(a)
    if pa == 0:
        raise RootAtA(f"{a} is a root of the polynomial")
    return p.shift(a).reverse(p.degree), pa


class RatFn:
    """Rational function num/den in lowest terms with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = ONE):
        if den.is_zero:
            raise DivisionByZeroPoly("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = ZERO, ONE
            return
        g = poly_gcd(num, den)
        if g != ONE:
            num, den = num // g, den // g
        c = den.lc
        if c != 1:
            num = num.scale(1 / c)
            den = den.monic()
        self.num, self.den = num, den

    @staticmethod
    def from_poly(p: Poly) -> "RatFn":
        return RatFn(p, ONE)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == ONE

    def __add__(self, other: "RatFn") -> "RatFn":
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFn":
        return RatFn(-self.num, self.den)

    def __sub__(self, other: "RatFn") -> "RatFn":
        return self + (-other)

    def __mul__(self, other: "RatFn") -> "RatFn":
        return RatFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFn") -> "RatFn":
        if other.is_zero:
            raise DivisionByZeroPoly("division by the zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatFn) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFn({self})"


def coprime_basis(polys: Sequence[Poly]):
    """gcd-free basis: pairwise coprime monic atoms generating every input.

    Every nonconstant monic input is an exact product of powers of the
    returned atoms. Constant inputs contribute nothing.
    """
    atoms: list[Poly] = []
    queue = [p.monic() for p in polys if not p.is_constant]
    while queue:
        f = queue.pop()
        if f.is_constant:
            continue
        placed = False
        for i, b in enumerate(atoms):
            g = poly_gcd(f, b)
            if g.is_constant:
                continue
            atoms.pop(i)
            placed = True
            for part in (g, b // g, f // g):
                if not part.monic().is_constant:
                    queue.append(part.monic())
            break
        if not placed:
            atoms.append(f)
    return sorted(set(atoms), key=Poly.sort_key)


def atom_valuation(p: Poly, atom: Poly) -> int:
    """Exponent of an atom in p, by repeated exact division."""
    count = 0
    while True:
        q, r = divmod(p, atom)
        if not r.is_zero:
            return count
        p = q
        count += 1
