"""Exact scalar arithmetic over Q: polynomials, factored forms, rational functions.

Every value here is immutable after construction and safe to share across
threads. The degree of the zero polynomial is the sentinel NEG_INF.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import BothZero, DivisionByZeroPoly, RootAtA

NEG_INF = float("-inf")

Scalar = Union[int, Fraction, str]


def as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational scalar")


def _reduced(nums: list, den: int) -> "Poly":
    """Poly with integer numerators nums over den > 0: strips trailing zeros
    and divides out the common factor of the numerators and den."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return ZERO
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return _make(tuple(nums), den)


def _pdivmod(a, b):
    """Pseudo-division of integer coefficient lists (Knuth, TAOCP vol. 2,
    4.6.1): (quo, scale, rem) with scale * a = quo * b + rem, scale > 0 and
    len(rem) < len(b), trailing zeros stripped. b is nonzero and a no
    shorter than b. The remainder is rescaled only by the part of b's leading
    coefficient that a step's leading term does not already hold, and never
    when that coefficient is +-1."""
    db = len(b) - 1
    lb = b[-1]
    rem = list(a)
    quo = [0] * (len(a) - db)
    scale = 1
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + db]
        if not c:
            continue
        if lb == 1 or lb == -1:
            q = c * lb
        else:
            g = math.gcd(c, lb)
            mult = abs(lb) // g
            if mult != 1:
                scale *= mult
                for i in range(k + db):
                    rem[i] *= mult
                for i in range(k + 1, len(quo)):
                    quo[i] *= mult
            q = c // g if lb > 0 else -(c // g)
        quo[k] = q
        for j in range(db):
            rem[k + j] -= q * b[j]
    del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return quo, scale, rem


def _stripped(nums) -> tuple:
    """nums without its trailing zeros, as a tuple."""
    k = len(nums)
    while k and not nums[k - 1]:
        k -= 1
    return tuple(nums[:k])


def _reversed(nums: tuple, deg: int) -> tuple:
    """The integer coefficients of s^deg * p(1/s) from those of p, deg >= deg(p)."""
    return _stripped((0,) * (deg + 1 - len(nums)) + nums[::-1])


def _make(nums: tuple, den: int) -> "Poly":
    """Poly from numerators and denominator already in normal form."""
    p = object.__new__(Poly)
    p.numerators, p.denominator, p._coeffs = nums, den, None
    return p


def _axpy(p: "Poly", q: "Poly", sign: int) -> "Poly":
    """p + sign * q for sign = +1 or -1, over the lcm of the denominators."""
    a, b = p.numerators, q.numerators
    if not b:
        return p
    if not a:
        return q if sign > 0 else -q
    da, db = p.denominator, q.denominator
    if da == db:
        den, fb = da, sign
        out = list(a)
    else:
        g = math.gcd(da, db)
        den, fa, fb = da // g * db, db // g, sign * (da // g)
        out = [c * fa for c in a]
    if len(b) > len(out):
        out.extend([0] * (len(b) - len(out)))
    for i, c in enumerate(b):
        out[i] += fb * c
    return _reduced(out, den)


class Poly:
    """Univariate polynomial over Q, coefficients ascending by power.

    Stored as numerators, a tuple of ints, over one positive common
    denominator, with trailing zeros stripped and the content of the
    numerators coprime to the denominator, so each polynomial has exactly one
    representation. Arithmetic runs on Python ints; coeffs builds the
    Fraction coefficients on first read and keeps them.
    """

    __slots__ = ("numerators", "denominator", "_coeffs")

    numerators: tuple
    denominator: int

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # reduced fractions: the lcm of their denominators leaves numerators
        # whose content is coprime to it
        den = math.lcm(*(c.denominator for c in cs))
        self.numerators = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.denominator = den
        self._coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: Scalar) -> "Poly":
        return Poly((c,))

    @staticmethod
    def monomial(c: Scalar, k: int) -> "Poly":
        return Poly((0,) * k + (c,))

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Coefficients as Fractions, ascending by power."""
        cs = self._coeffs
        if cs is None:
            d = self.denominator
            cs = self._coeffs = tuple(Fraction(c, d) for c in self.numerators)
        return cs

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def degree(self):
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self.numerators) - 1 if self.numerators else NEG_INF

    @property
    def lc(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeff(len(self.numerators) - 1)

    @property
    def is_monic(self) -> bool:
        return bool(self.numerators) and self.numerators[-1] == self.denominator

    @property
    def is_constant(self) -> bool:
        return len(self.numerators) <= 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.numerators):
            return Fraction(self.numerators[k], self.denominator)
        return Fraction(0)

    def __call__(self, x: Scalar) -> Fraction:
        """Value at x, by Horner's rule on the integer numerators: with
        x = u/v and degree n, v^n * p(x) is an integer combination of the
        numerators."""
        nums = self.numerators
        if not nums:
            return Fraction(0)
        if type(x) is not int:
            x = as_fraction(x)
        u, v = x.numerator, x.denominator
        acc = nums[-1]
        vk = 1
        for c in nums[-2::-1]:
            vk *= v
            acc = acc * u + c * vk
        return Fraction(acc, self.denominator * vk)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return _axpy(self, other, 1)

    def __neg__(self) -> "Poly":
        return _make(tuple(-c for c in self.numerators), self.denominator)

    def __sub__(self, other: "Poly") -> "Poly":
        return _axpy(self, other, -1)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        a, b = self.numerators, other.numerators
        if not a or not b:
            return ZERO
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, cb in enumerate(b):
            if cb:
                for j, ca in enumerate(a, i):
                    out[j] += ca * cb
        return _reduced(out, self.denominator * other.denominator)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c: Scalar) -> "Poly":
        if type(c) is not int:
            c = as_fraction(c)
        u = c.numerator
        return _reduced([u * x for x in self.numerators], self.denominator * c.denominator)

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
        """Division over Q by pseudo-division over Z (_pdivmod) by the
        primitive part of the divisor's numerators."""
        b = other.numerators
        if not b:
            raise DivisionByZeroPoly("division by the zero polynomial")
        a = self.numerators
        if len(a) < len(b):
            return ZERO, self
        # divide by the primitive part b / cb of the integer divisor
        cb = math.gcd(*b)
        if cb != 1:
            b = [c // cb for c in b]
        quo, scale, rem = _pdivmod(a, b)
        den = scale * self.denominator
        # self = (quo * b + rem) / den and other = cb * b / other.denominator
        return (_reduced([c * other.denominator for c in quo], den * cb),
                _reduced(rem, den))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        nums = self.numerators
        if not nums or nums[-1] == self.denominator:
            return self
        # p / lc(p) is the numerator polynomial over its leading numerator
        lead = nums[-1]
        if lead < 0:
            return _reduced([-c for c in nums], -lead)
        return _reduced(list(nums), lead)

    def shift(self, a: Scalar) -> "Poly":
        """Compose with s + a, i.e. return p(s + a).

        Integer Taylor shift: with a = u/v and degree n, Horner's rule in the
        integer linear factor v*s + u builds v^n * p(s + a).
        """
        a = as_fraction(a)
        nums = self.numerators
        if a == 0 or len(nums) <= 1:
            return self
        u, v = a.numerator, a.denominator
        acc = [nums[-1]]
        vk = 1
        for c in nums[-2::-1]:
            vk *= v
            acc.append(v * acc[-1])
            for i in range(len(acc) - 2, 0, -1):
                acc[i] = u * acc[i] + v * acc[i - 1]
            acc[0] = u * acc[0] + c * vk
        return _reduced(acc, self.denominator * vk)

    def reverse(self, deg: int) -> "Poly":
        """s^deg * p(1/s): the coefficients read backwards in a frame of
        degree deg, which must be at least deg(p)."""
        nums = self.numerators
        if deg < len(nums) - 1:
            raise ValueError(f"reversal degree {deg} is below the degree of {self}")
        return _make(_reversed(nums, deg), self.denominator)

    # -- comparisons and hashing -------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly)
                and self.numerators == other.numerators
                and self.denominator == other.denominator)

    def __hash__(self) -> int:
        return hash((self.numerators, self.denominator))

    def sort_key(self):
        return (len(self.numerators), self.coeffs)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        """Terms by descending power, each coefficient in lowest terms, read
        from the numerators over the denominator."""
        if self.is_zero:
            return "0"
        den, out = self.denominator, []
        for k in range(len(self.numerators) - 1, -1, -1):
            c = self.numerators[k]
            if not c:
                continue
            g = math.gcd(c, den)
            mag = str(abs(c) // g) if g == den else f"{abs(c) // g}/{den // g}"
            if k:
                var = "s" if k == 1 else f"s^{k}"
                mag = var if mag == "1" else f"{mag}*{var}"
            sign = "-" if c < 0 else "+"
            out.append(f" {sign} {mag}" if out else mag if c > 0 else f"-{mag}")
        return "".join(out)

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


def _linear_valuation(nums, a: int, b: int) -> tuple:
    """(k, quotient) with k the exponent of b*s - a (b > 0, gcd(a, b) = 1) in
    the integer polynomial nums, by synthetic division over Z; b*s - a is
    primitive, so exact quotients are integral (Gauss's lemma)."""
    k = 0
    while len(nums) > 1:
        quo, t = [0] * (len(nums) - 1), 0
        for i in range(len(nums) - 1, 0, -1):
            t, rem = divmod(nums[i] + a * t, b)
            if rem:
                return k, nums
            quo[i - 1] = t
        if nums[0] + a * t:
            return k, nums
        nums, k = quo, k + 1
    return k, nums


def _linear_product(powers) -> Poly:
    """prod (s - root)^k over (root, k) pairs, on integers: the product of
    the b*s - a, root = a/b, over its leading coefficient."""
    nums = [1]
    for root, k in powers:
        a, b = root.numerator, root.denominator
        for _ in range(k):
            nums = [b * hi - a * lo for lo, hi in zip(nums + [0], [0] + nums)]
    return _reduced(nums, nums[-1])


def _horner(p: list, y: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * y + c
    return acc


def _rational_roots(f: list) -> list:
    """Rational roots, ascending, of the integer polynomial f of degree n >= 1
    with f(0) != 0, by Sturm-sequence bisection on integers. The chain is f,
    f' and the negated pseudo-remainders (_pdivmod scales by a positive
    factor), made primitive and divided exactly by the last, gcd(f, f'):
    the Sturm chain of the squarefree part. With L its leading coefficient,
    y = L*s puts every rational root at an integer y. Integer intervals
    (lo, hi] inside Fujiwara's bound 2^(e+1) on L^n f(y/L), e at most its
    largest coefficient bit length, are halved while their sign variations
    count a root, so a root costs at most e + 2 halvings of at most one
    Sturm evaluation (n + 1 integer Horner evaluations) each: polynomial in
    the bit length. An interval with one root is halved on the sign of
    L^n f(y/L) alone."""
    chain = [f, [i * c for i, c in enumerate(f) if i]]
    while True:
        g = math.gcd(*chain[-1])
        chain[-1] = [c // g for c in chain[-1]]
        rem = _pdivmod(chain[-2], chain[-1])[2]
        if not rem:
            break
        chain.append([-c for c in rem])
    if len(chain[-1]) > 1:
        chain = [[c // scale for c in quo] for quo, scale, _ in
                 (_pdivmod(p, chain[-1]) for p in chain)]
    lead = abs(chain[0][-1])
    chain = [[c * lead ** (len(p) - 1 - i) for i, c in enumerate(p)] for p in chain]
    p, n = chain[0], len(chain[0]) - 1
    top = p[-1].bit_length() - 1
    e = max(0, *(-((top - c.bit_length()) // (n - i)) for i, c in enumerate(p[:-1]) if c))

    def variations(y):
        signs = [v > 0 for v in (_horner(q, y) for q in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    roots, bound = [], 2 ** (e + 1)
    stack = [(-bound, bound, variations(-bound), variations(bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if not _horner(p, hi):
                roots.append(Fraction(hi, lead))
            continue
        mid = (lo + hi) // 2
        if vlo - vhi == 1:
            # one simple root: in (mid, hi] iff it is hi or p changes sign
            # between mid and hi
            ph, pm = _horner(p, hi), _horner(p, mid)
            vmid = vhi + bool(not ph or pm and (pm > 0) != (ph > 0))
        else:
            vmid = variations(mid)
        stack += [(mid, hi, vmid, vhi), (lo, mid, vlo, vmid)]
    return roots


def _root_free_numerators(p: Poly) -> tuple:
    """(v, nums): the valuation v of a nonzero p at 0, and the integer
    numerators of p / s^v with a positive leading coefficient."""
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    nums = p.numerators
    v = next(i for i, c in enumerate(nums) if c)
    return v, list(nums[v:]) if nums[-1] > 0 else [-c for c in nums[v:]]


def rational_roots(p: Poly) -> list:
    """The rational roots of a nonzero p, ascending, 0 among them when
    p(0) = 0: those of p / s^v by Sturm-sequence bisection over integer
    intervals (_rational_roots), at most e + 2 halvings per root for
    coefficients of e bits, so the cost grows with the bit length, not with
    the divisors of the coefficients. No multiplicity is counted."""
    v, nums = _root_free_numerators(p)
    roots = _rational_roots(nums) if len(nums) > 1 else []
    return sorted(roots + [Fraction(0)]) if v else roots


def split_over_rationals(p: Poly) -> FactoredPoly:
    """Peel off every rational root (with exact multiplicity) of a nonzero p,
    on its integer numerators: the roots come from rational_roots, and each
    multiplicity from synthetic division by b*s - a (_linear_valuation)."""
    v, nums = _root_free_numerators(p)
    factors = []
    for root in rational_roots(p):
        if root:
            mult, nums = _linear_valuation(nums, root.numerator, root.denominator)
        else:
            mult = v
        factors.append((root, mult))
    return FactoredPoly(p.lc, factors, _reduced(nums, 1).monic())


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


def atom_valuation(p: Poly, atom: Poly) -> tuple:
    """(k, p / atom^k) with k the exponent of an atom in p, by repeated
    exact division."""
    count = 0
    while True:
        q, r = divmod(p, atom)
        if not r.is_zero:
            return count, p
        p = q
        count += 1
