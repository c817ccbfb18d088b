"""Prescriptions of structural data and the majorization feasibility checker.

Six prescription variants are supported: spans, span indices, or the full
six-list eigenstructure, each for polynomial and for rational matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

from .errors import LengthMismatch, MalformedPrescription, _quoted
from .qpoly import ONE, divides, poly_gcd
from .polymat import PolyMatrix, is_minimal_basis

POLY_VARIANTS = ("P1_spans", "P2_span_indices", "P3_full")
RAT_VARIANTS = ("R1_spans", "R2_span_indices", "R3_full")
VARIANTS = POLY_VARIANTS + RAT_VARIANTS

# report keys -> the verbatim labels reports must carry
CONDITION_LABELS = {
    "eqf1": "eqf1",
    "eqprec": "eqprec",
    "eqx0": "eqx>0",
    "eqy0": "eqy>0",
    "eqsums": "eqsums",
    "eqIST": "eqIST",
    "eqprec_rat": "eqprec_rat1",
}

PASS, FAIL, NA = "pass", "fail", "not_applicable"


def g_sequence(k: Sequence[int], l: Sequence[int]) -> tuple:
    """Descending reordering of the anti-diagonal sums k_(r-i+1) + l_i."""
    if len(k) != len(l):
        raise LengthMismatch("index partitions of different lengths")
    r = len(k)
    return tuple(sorted((k[r - 1 - i] + l[i] for i in range(r)), reverse=True))


def majorizes(a: Sequence[int], b: Sequence[int]) -> bool:
    """a majorized by b: partial sums of a bounded by b's, totals equal."""
    if len(a) != len(b):
        raise LengthMismatch("majorization needs equal lengths")
    sa = sb = 0
    for x, y in zip(a, b):
        sa += x
        sb += y
        if sa > sb:
            return False
    return sa == sb


def _is_desc(seq) -> bool:
    return all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))


def _is_asc(seq) -> bool:
    return all(seq[i] <= seq[i + 1] for i in range(len(seq) - 1))


@dataclass(frozen=True)
class ConditionResult:
    status: str
    label: str
    lhs_partial_sums: Optional[tuple] = None
    rhs_partial_sums: Optional[tuple] = None


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    g_sequence: tuple
    conditions: dict

    def status(self, key: str) -> str:
        return self.conditions[key].status


@dataclass(frozen=True)
class Prescription:
    """Prescribed structural data for one of the six problem variants.

    Polynomial variants carry (alpha, f, d); rational ones (epsilon, psi, q).
    Span data is either explicit bases (spans variants) or index partitions;
    the full variants add right/left null index partitions.

    A prescription is validated when it is built and is immutable after, so
    malformed data raises MalformedPrescription at construction and every
    consumer may rely on a valid one. Use dataclasses.replace to derive a
    changed copy; it is validated in turn.
    """

    variant: str
    m: int
    n: int
    r: int
    d: Optional[int] = None
    alpha: Optional[tuple] = None
    f: Optional[tuple] = None
    epsilon: Optional[tuple] = None
    psi: Optional[tuple] = None
    q: Optional[tuple] = None
    k: Optional[tuple] = None
    l: Optional[tuple] = None
    right: Optional[tuple] = None
    left: Optional[tuple] = None
    K: Optional[PolyMatrix] = None
    Lt: Optional[PolyMatrix] = None

    def __post_init__(self) -> None:
        self.validate()

    @property
    def is_rational(self) -> bool:
        return self.variant in RAT_VARIANTS

    @property
    def uses_bases(self) -> bool:
        return self.variant.endswith("spans")

    @property
    def uses_null_indices(self) -> bool:
        return self.variant.endswith("full")

    # -- validation -----------------------------------------------------------

    def _fail(self, msg: str):
        raise MalformedPrescription(msg)

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            self._fail(f"unknown variant {_quoted(self.variant)}")
        if not (1 <= self.r <= min(self.m, self.n)):
            self._fail("rank must satisfy 1 <= r <= min(m, n)")

        if self.is_rational:
            self._validate_rational_data()
        else:
            self._validate_polynomial_data()

        if self.uses_bases:
            if self.K is None or self.Lt is None:
                self._fail("spans variant requires bases K and Lt")
            if (self.K.m, self.K.n) != (self.m, self.r):
                self._fail("K must be m x r")
            if (self.Lt.m, self.Lt.n) != (self.n, self.r):
                self._fail("Lt must be n x r")
            okK, _ = is_minimal_basis(self.K)
            okL, _ = is_minimal_basis(self.Lt)
            if not okK:
                self._fail("K is not a minimal basis")
            if not okL:
                self._fail("Lt is not a minimal basis")
        else:
            if self.k is None or self.l is None:
                self._fail("index variant requires partitions k and l")
            for name, part, size in (("k", self.k, self.r), ("l", self.l, self.r)):
                if len(part) != size:
                    self._fail(f"partition {name} must have length {size}")
                if any(x < 0 for x in part):
                    self._fail(f"partition {name} must be nonnegative")
                if not _is_desc(part):
                    self._fail(f"partition {name} must be sorted descending")

        if self.uses_null_indices:
            if self.right is None or self.left is None:
                self._fail("full variant requires right and left partitions")
            if len(self.right) != self.n - self.r:
                self._fail("right partition must have length n - r")
            if len(self.left) != self.m - self.r:
                self._fail("left partition must have length m - r")
            for name, part in (("right", self.right), ("left", self.left)):
                if any(x < 0 for x in part):
                    self._fail(f"partition {name} must be nonnegative")
                if not _is_desc(part):
                    self._fail(f"partition {name} must be sorted descending")

    def _validate_polynomial_data(self) -> None:
        if self.d is None or self.d < 0:
            self._fail("polynomial variant requires a nonnegative degree d")
        if self.alpha is None or len(self.alpha) != self.r:
            self._fail("alpha must list r invariant factors")
        for a in self.alpha:
            if a.is_zero or not a.is_monic:
                self._fail("invariant factors must be monic and nonzero")
        for i in range(self.r - 1):
            if not divides(self.alpha[i], self.alpha[i + 1]):
                self._fail("invariant factors must form a divisibility chain")
        if self.f is None or len(self.f) != self.r:
            self._fail("f must list r partial multiplicities")
        if any(x < 0 for x in self.f) or not _is_asc(self.f):
            self._fail("f must be nonnegative and sorted ascending")

    def _validate_rational_data(self) -> None:
        for name, chain in (("epsilon", self.epsilon), ("psi", self.psi)):
            if chain is None or len(chain) != self.r:
                self._fail(f"{name} must list r polynomials")
            for a in chain:
                if a.is_zero or not a.is_monic:
                    self._fail(f"{name} entries must be monic and nonzero")
        for i in range(self.r - 1):
            if not divides(self.epsilon[i], self.epsilon[i + 1]):
                self._fail("epsilon must form an ascending divisibility chain")
            if not divides(self.psi[i + 1], self.psi[i]):
                self._fail("psi must form a descending divisibility chain")
        for e, p in zip(self.epsilon, self.psi):
            if poly_gcd(e, p) != ONE:
                self._fail("invariant rational functions must be irreducible")
        if self.q is None or len(self.q) != self.r:
            self._fail("q must list r invariant orders")
        if not _is_asc(self.q):
            self._fail("q must be sorted ascending")

    # -- derived data -----------------------------------------------------------

    def span_degrees(self):
        """(k, l) partitions, read off the bases for the spans variants."""
        if self.uses_bases:
            k = tuple(sorted((int(d) for d in self.K.column_degrees()), reverse=True))
            l = tuple(sorted((int(d) for d in self.Lt.column_degrees()), reverse=True))
            return k, l
        return tuple(self.k), tuple(self.l)

    def rhs_weights(self):
        """Right-hand side of the majorization, largest term first."""
        if self.is_rational:
            vals = [
                int(self.epsilon[i].degree) - int(self.psi[i].degree) + self.q[i]
                for i in range(self.r)
            ]
        else:
            vals = [int(self.alpha[i].degree) + self.f[i] for i in range(self.r)]
        return tuple(reversed(vals))


def check_feasibility(p: Prescription) -> FeasibilityReport:
    """Evaluate every applicable existence condition for the prescription."""
    k, l = p.span_degrees()
    g = g_sequence(k, l)
    r = p.r
    conds: dict = {}

    def cond(key, status, lhs=None, rhs=None):
        conds[key] = ConditionResult(
            status=status,
            label=CONDITION_LABELS[key],
            lhs_partial_sums=lhs,
            rhs_partial_sums=rhs,
        )

    rhs = p.rhs_weights()
    if p.is_rational:
        lhs = tuple(-gi for gi in reversed(g))
    else:
        lhs = tuple(p.d - gi for gi in reversed(g))

    lhs_sums, rhs_sums = tuple(accumulate(lhs)), tuple(accumulate(rhs))
    prec_key = "eqprec_rat" if p.is_rational else "eqprec"
    cond(prec_key, PASS if majorizes(lhs, rhs) else FAIL, lhs_sums, rhs_sums)
    cond("eqprec" if p.is_rational else "eqprec_rat", NA)

    if p.is_rational:
        cond("eqf1", NA)
        cond("eqIST", NA)
    else:
        cond("eqf1", PASS if p.f[0] == 0 else FAIL)
        # totals member of eqprec; via the null indices when they are given
        if p.uses_null_indices:
            total = sum(p.right) + sum(p.left)
        else:
            total = sum(k) + sum(l)
        total += sum(p.f) + sum(int(a.degree) for a in p.alpha)
        cond("eqIST", PASS if total == r * p.d else FAIL)

    if p.uses_null_indices:
        ok = sum(p.left) == sum(k) and sum(p.right) == sum(l)
        cond("eqsums", PASS if ok else FAIL)
    else:
        cond("eqsums", NA)

    if not (p.uses_bases or p.uses_null_indices):
        # vacuously true when r < n (resp. r < m), hence "pass"
        cond("eqx0", PASS if (r < p.n or all(x == 0 for x in l)) else FAIL)
        cond("eqy0", PASS if (r < p.m or all(x == 0 for x in k)) else FAIL)
    else:
        # spans variants: enforced by the minimal-basis shape; full variants:
        # implied by eqsums
        cond("eqx0", NA)
        cond("eqy0", NA)

    feasible = all(c.status != FAIL for c in conds.values())
    return FeasibilityReport(feasible=feasible, g_sequence=g, conditions=conds)
