"""Seeded corpora, operations and correctness checks of the three workloads.

Every corpus is generated here from the workload seed with the benchmark's
own arithmetic (``exact``); nothing is imported from the test suite, so an
edit to the tests never changes what the benchmark runs. One pass of a
workload is a fixed, stratified mix of inputs: the counts, shapes and
degrees of every stratum are the same for every seed and pass, and only
the random coefficients differ. That keeps the cost of a pass steady across
seeds. Each pass draws fresh inputs, so a cache that outlives one operation
cannot turn a later pass into a replay of an earlier one; the exception is
the few ``roundtrip`` prescriptions that have no coefficient to draw (about
one in sixteen, all of them cheap), which repeat in every pass.

An operation takes JSON text in and gives JSON text out, as the command
line does, but in process:

* ``analyze``: ``matrix_from_json``, then ``extract_poly_structure`` or
  ``extract_rational_structure``, ``structural_report`` and ``json.dumps``.
* ``roundtrip``: ``prescription_from_json``, then ``realize_span``,
  ``realize_full`` or ``realize_rational`` (each gates on
  ``check_feasibility``), ``verify`` and the construct report.
* ``minors``: ``matrix_from_json``, then ``select_nonzero_minor`` for one
  index tuple Z.

The checks run outside the timed region and return a list of failure
reasons, empty when the output is correct.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import exact

WORKLOADS = ("analyze", "roundtrip", "minors")
DEFAULT_SEED = 0

# The tiny corpus of the smoke test: the first items of pass 0 in each of
# these strata, so the golden data of the default seed covers it too.
TINY_STRATA = {
    "analyze": ("small-dense", "small-lowrank", "rational"),
    "roundtrip": ("r1", "r2"),
    "minors": ("5x5",),
}
TINY_PER_STRATUM = 4


def _rng(workload, seed, pass_index):
    return random.Random(f"{workload}/{seed}/{pass_index}")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Item:
    __slots__ = ("index", "stratum", "doc", "text")

    def __init__(self, index, stratum, doc):
        self.index = index
        self.stratum = stratum
        self.doc = doc
        self.text = json.dumps(doc)


def corpus(workload, seed, pass_index, tiny=False):
    """The inputs of one pass, in the order they are run."""
    rng = _rng(workload, seed, pass_index)
    raw = _GENERATORS[workload](rng)
    order = list(range(len(raw)))
    rng.shuffle(order)
    items = [Item(i, raw[i][0], raw[i][1]) for i in order]
    if tiny:
        items = [
            it
            for stratum in TINY_STRATA[workload]
            for it in sorted(
                (it for it in items if it.stratum == stratum), key=lambda it: it.index
            )[:TINY_PER_STRATUM]
        ]
    return items


# -- generators ---------------------------------------------------------------


def _poly(rng, max_deg, lo=-3, hi=3):
    return [rng.randint(lo, hi) for _ in range(rng.randint(0, max_deg) + 1)]


def _matrix_rows(rng, m, n, max_deg, zero_share):
    while True:
        rows = [
            [[] if rng.random() < zero_share else _poly(rng, max_deg) for _ in range(n)]
            for _ in range(m)
        ]
        if any(exact.trim(e) for row in rows for e in row):
            return [[exact.from_json(e) for e in row] for row in rows]


def _low_rank_rows(rng, m, n, r):
    while True:
        left = [[exact.from_json(_poly(rng, 1)) for _ in range(r)] for _ in range(m)]
        right = [[exact.from_json(_poly(rng, 1)) for _ in range(n)] for _ in range(r)]
        rows = exact.matmul(left, right)
        if any(e for row in rows for e in row):
            return rows


def _matrix_doc(rows, n):
    return {
        "m": len(rows),
        "n": n,
        "entries": [exact.to_json(e) for row in rows for e in row],
    }


_DENOMINATORS = (
    [1],
    [0, 1],
    [-1, 1],
    [1, 1],
    [0, 0, 1],
    [-2, 1, 1],  # (s - 1)(s + 2)
    [1, 0, 1],  # s^2 + 1, irreducible over Q
)


def _rational_doc(rng, m, n):
    """Entries over 1 and two denominators drawn for the matrix, which caps
    the degree of the common denominator at 4."""
    dens = [[1]] + rng.sample(_DENOMINATORS[1:], 2)
    while True:
        entries = []
        for _ in range(m * n):
            num = [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
            entries.append({"num": num, "den": list(rng.choice(dens))})
        if any(exact.trim(e["num"]) for e in entries):
            return {"m": m, "n": n, "entries": entries}


# (stratum, count, kind, rows, cols, degrees or ranks). Items of a stratum
# cycle through every (rows, cols, degree) combination in order. Three in
# four items are small, so that the median latency falls inside the small
# strata, where the latencies lie close together, rather than on the steep
# step up to the medium ones, where it moves with every draw.
ANALYZE_MIX = (
    ("small-dense", 108, "dense", (1, 2, 3), (1, 2, 3), (1, 2, 3)),
    ("small-sparse", 36, "sparse", (2, 3), (2, 3), (1, 2, 3)),
    ("small-lowrank", 32, "lowrank", (2, 3), (2, 3), (1,)),
    ("rational", 81, "rational", (1, 2, 3), (1, 2, 3), (0,)),
    ("medium-dense", 30, "dense", (4, 5), (4, 5), (1, 2)),
    ("medium-sparse", 12, "sparse", (4, 5), (4, 5), (2, 3)),
    ("medium-lowrank", 15, "lowrank", (4, 5), (4, 5), (2, 3)),
    ("large-dense", 6, "dense", (6, 7), (6, 7), (1,)),
    ("large-sparse", 8, "sparse", (6, 7), (6, 7), (1,)),
    ("large-lowrank", 8, "lowrank", (6, 7), (6, 7), (2, 3)),
)
_ZERO_SHARE = {"dense": 0.25, "sparse": 0.6}


def _analyze_inputs(rng):
    out = []
    for stratum, count, kind, ms, ns, params in ANALYZE_MIX:
        combos = list(itertools.product(ms, ns, params))
        for t in range(count):
            m, n, p = combos[t % len(combos)]
            if kind == "rational":
                doc = _rational_doc(rng, m, n)
            elif kind == "lowrank":
                doc = _matrix_doc(_low_rank_rows(rng, m, n, min(p, m, n)), n)
            else:
                doc = _matrix_doc(_matrix_rows(rng, m, n, p, _ZERO_SHARE[kind]), n)
            out.append((stratum, doc))
    return out


ROOT_POOL = tuple(range(-3, 4))
POLY_VARIANTS = ("P1_spans", "P2_span_indices", "P3_full")
RATIONAL_OF = {
    "P1_spans": "R1_spans",
    "P2_span_indices": "R2_span_indices",
    "P3_full": "R3_full",
}
# Items of each variant, polynomial and rational alike; item t has rank
# 1 + t % 3, so each rank gets ROUNDTRIP_PER_VARIANT // 3 items.
ROUNDTRIP_PER_VARIANT = 36
EXTRA_D = 2
# Explicit bases up to 4 rows: with 5 their mixed coefficients make the
# spans variants' cost vary the most from seed to seed.
SPANS_MAX_MN = 4


def _partition(rng, size, maxv):
    return sorted((rng.randint(0, maxv) for _ in range(size)), reverse=True)


def _composition_desc(rng, total, parts):
    if parts == 0:
        return []
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    vals, prev = [], 0
    for c in cuts + [total]:
        vals.append(c - prev)
        prev = c
    return sorted(vals, reverse=True)


def _minimal_basis_doc(rng, degrees, ambient):
    """Bidiagonal minimal basis with the given column degrees, mixed by a
    random constant invertible matrix (which keeps it minimal)."""
    r = len(degrees)
    B = [[[] for _ in range(r)] for _ in range(ambient)]
    for i, d in enumerate(degrees):
        if ambient == r:
            B[i][i] = [Fraction(1)]
        else:
            B[i][i] = [Fraction(0)] * d + [Fraction(1)]
            B[i + 1][i] = [Fraction(1)]
    while True:
        C = [[Fraction(rng.randint(-1, 1)) for _ in range(ambient)] for _ in range(ambient)]
        if exact.scalar_rank(C) == ambient:
            break
    Cp = [[exact.trim([c]) for c in row] for row in C]
    return _matrix_doc(exact.matmul(Cp, B), r)


def _skeletons(variant, r, count):
    """(m, n, k, l, degree above the least feasible one) of the ``count``
    items of rank r of a variant. They are the same for every seed and
    pass: the sizes, the minimal indices and the degree decide most of an
    item's cost, so a pass whose mix of them changed from draw to draw would
    change its latency tail with it. The items cycle through every
    (m, n, extra degree) in a fixed shuffled order."""
    max_mn = SPANS_MAX_MN if variant == "P1_spans" else 5
    combos = list(itertools.product(range(r, max_mn + 1), range(r, max_mn + 1),
                                    range(EXTRA_D + 1)))
    rng = random.Random(f"roundtrip-skeletons/{variant}/{r}")
    rng.shuffle(combos)
    out = []
    for j in range(count):
        m, n, extra = combos[j % len(combos)]
        k = [0] * r if m == r else _partition(rng, r, 2)
        l = [0] * r if n == r else _partition(rng, r, 2)
        out.append((m, n, k, l, extra))
    return out


def _feasible_prescription(rng, variant, r, skeleton):
    """Feasible by construction: the majorization right side is grown from
    the left side by prefix-preserving unit moves, then split into a
    split-over-Q invariant chain and ascending infinite multiplicities."""
    m, n, k, l, extra = skeleton
    g = sorted((k[r - 1 - i] + l[i] for i in range(r)), reverse=True)
    d = g[0] + extra

    w = [d - gi for gi in reversed(g)]
    for _ in range(rng.randint(0, 2 * r)):
        qpos = max((idx for idx in range(r) if w[idx] > 0), default=None)
        if qpos is None or qpos == 0:
            break
        w[0] += 1
        w[qpos] -= 1

    totals = list(reversed(w))
    a, f = [totals[0]], [0]
    for i in range(1, r):
        inc = totals[i] - totals[i - 1]
        da = rng.randint(0, inc)
        a.append(a[-1] + da)
        f.append(f[-1] + inc - da)

    roots, alpha_roots = [], []
    for i in range(r):
        for _ in range(a[i] - (a[i - 1] if i else 0)):
            roots.append(rng.choice(ROOT_POOL))
        alpha_roots.append(sorted(roots))

    doc = {"variant": variant, "m": m, "n": n, "r": r, "d": d, "f": f}
    if variant == "P1_spans":
        doc["K"] = _minimal_basis_doc(rng, k, m)
        doc["Lt"] = _minimal_basis_doc(rng, l, n)
    else:
        doc["k"], doc["l"] = k, l
        if variant == "P3_full":
            doc["left"] = _composition_desc(rng, sum(k), m - r)
            doc["right"] = _composition_desc(rng, sum(l), n - r)
    return doc, alpha_roots


def _rationalize(rng, doc, alpha_roots):
    """Rational counterpart with a split top denominator psi1: eps_i and
    psi_i are alpha_i and psi1 with their common roots removed."""
    psi1 = Counter(rng.choice(ROOT_POOL) for _ in range(rng.randint(0, 2)))
    eps, psi = [], []
    for roots in alpha_roots:
        alpha = Counter(roots)
        eps.append(exact.to_json(exact.from_roots(sorted((alpha - psi1).elements()))))
        psi.append(exact.to_json(exact.from_roots(sorted((psi1 - alpha).elements()))))
    out = {key: val for key, val in doc.items() if key not in ("d", "f")}
    out["variant"] = RATIONAL_OF[doc["variant"]]
    out["epsilon"], out["psi"] = eps, psi
    out["q"] = [fi + psi1.total() - doc["d"] for fi in doc["f"]]
    return out


def _roundtrip_inputs(rng):
    out = []
    per_rank = ROUNDTRIP_PER_VARIANT // 3
    for variant in POLY_VARIANTS:
        skeletons = {r: _skeletons(variant, r, per_rank) for r in (1, 2, 3)}
        for rational in (False, True):
            for t in range(ROUNDTRIP_PER_VARIANT):
                r = 1 + t % 3
                doc, alpha_roots = _feasible_prescription(
                    rng, variant, r, skeletons[r][t // 3]
                )
                if rational:
                    doc = _rationalize(rng, doc, alpha_roots)
                else:
                    doc["alpha"] = [
                        exact.to_json(exact.from_roots(rs)) for rs in alpha_roots
                    ]
                out.append((f"r{r}", doc))
    return out


# (size, entry degree) of the nonsingular matrices of one minors pass; each
# gets one query per nonempty index tuple Z, 284 queries in all.
MINORS_MATRICES = ((5, 2), (6, 1), (6, 1), (7, 1))


def _nonsingular_rows(rng, size, deg):
    """A quarter of the entries zero, the others of degree exactly deg: the
    cost of a determinant then varies little from one matrix to the next."""
    cells = size * size
    while True:
        zeros = set(rng.sample(range(cells), cells // 4))
        rows = [
            [[] if i * size + j in zeros else exact.from_json(
                [rng.randint(-3, 3) for _ in range(deg)] + [rng.choice((-3, -2, -1, 1, 2, 3))])
             for j in range(size)]
            for i in range(size)
        ]
        at = [[exact.evaluate(e, exact.POINTS[0]) for e in row] for row in rows]
        if exact.scalar_rank(at) == size:
            return rows


def _minors_inputs(rng):
    out = []
    for size, deg in MINORS_MATRICES:
        mat = _matrix_doc(_nonsingular_rows(rng, size, deg), size)
        for k in range(1, size + 1):
            for Z in itertools.combinations(range(1, size + 1), k):
                out.append((f"{size}x{size}", {"matrix": mat, "Z": list(Z)}))
    return out


_GENERATORS = {
    "analyze": _analyze_inputs,
    "roundtrip": _roundtrip_inputs,
    "minors": _minors_inputs,
}


# -- operations -------------------------------------------------------------


def make_op(workload):
    """The operation of a workload as a function of JSON text to JSON text.

    Library names are looked up on their modules at call time, so that the
    tracer's wrappers are seen when tracing is on.
    """
    import structura
    from structura import extract, jsonio, minors, polymat, synthesis

    def analyze(text):
        mat = jsonio.matrix_from_json(json.loads(text))
        if isinstance(mat, polymat.PolyMatrix):
            data = extract.extract_poly_structure(mat)
        else:
            data = extract.extract_rational_structure(mat)
        return json.dumps(jsonio.structural_report(data), indent=2)

    def roundtrip(text):
        p = jsonio.prescription_from_json(json.loads(text))
        if p.is_rational:
            result = synthesis.realize_rational(p)
            matrix_doc = jsonio.rationalmatrix_to_json(result)
        elif p.uses_null_indices:
            result = synthesis.realize_full(p)
            matrix_doc = jsonio.polymatrix_to_json(result)
        else:
            result = synthesis.realize_span(p)
            matrix_doc = jsonio.polymatrix_to_json(result)
        doc = {
            "tool": "structura",
            "version": structura.__version__,
            "matrix": matrix_doc,
            "verification": jsonio.verification_report_json(
                extract.verify(result, p)
            ),
        }
        return json.dumps(doc, indent=2)

    def minor_select(text):
        doc = json.loads(text)
        mat = jsonio.matrix_from_json(doc["matrix"])
        I, J = minors.select_nonzero_minor(mat, doc["Z"])
        return json.dumps({"Z": doc["Z"], "I": list(I), "J": list(J)})

    return {"analyze": analyze, "roundtrip": roundtrip, "minors": minor_select}[workload]


# -- checks -------------------------------------------------------------------


def _poly_rows(doc):
    n = doc["n"]
    ents = doc["entries"]
    return [[exact.from_json(ents[i * n + j]) for j in range(n)] for i in range(doc["m"])]


def _rational_rows(doc):
    n = doc["n"]
    ents = doc["entries"]
    return [
        [(exact.from_json(e["num"]), exact.from_json(e["den"]))
         for e in ents[i * n:(i + 1) * n]]
        for i in range(doc["m"])
    ]


def _cleared_rows(rat_rows):
    """Each row multiplied by the product of its denominators: a polynomial
    matrix with the same right null space."""
    out = []
    for row in rat_rows:
        cleared = []
        for j, (num, _) in enumerate(row):
            acc = num
            for t, (_, den) in enumerate(row):
                if t != j:
                    acc = exact.mul(acc, den)
            cleared.append(acc)
        out.append(cleared)
    return out


def _rank_at_points(value_at, r_expected, tries=3):
    """Largest rank of the evaluated matrix over a few points; value_at(x)
    returns the scalar matrix or None when x is a pole."""
    best = 0
    for x in exact.POINTS:
        vals = value_at(x)
        if vals is None:
            continue
        best = max(best, exact.scalar_rank(vals))
        tries -= 1
        if best >= r_expected or tries == 0:
            break
    return best


def _poly_value(rows):
    return lambda x: [[exact.evaluate(e, x) for e in row] for row in rows]


def _rational_value(rat_rows):
    def value_at(x):
        out = []
        for row in rat_rows:
            vals = []
            for num, den in row:
                dv = exact.evaluate(den, x)
                if dv == 0:
                    return None
                vals.append(exact.evaluate(num, x) / dv)
            out.append(vals)
        return out

    return value_at


def _check_basis(block, rows, cols, name, fails):
    """Shape, column-degree/index agreement and column properness of one
    reported basis; returns the basis as rows of polynomials."""
    idx = block["indices"]
    B = block["basis"]
    if len(idx) != cols or B["n"] != cols or B["m"] != rows:
        fails.append(f"{name}: basis is {B['m']}x{B['n']}, expected {rows}x{cols}")
        return None
    if idx != sorted(idx, reverse=True) or any(x < 0 for x in idx):
        fails.append(f"{name}: indices not descending and nonnegative")
    mat = _poly_rows(B)
    if cols and sorted(exact.column_degrees(mat, cols), reverse=True) != idx:
        fails.append(f"{name}: column degrees differ from the reported indices")
    if not exact.is_column_proper(mat, cols):
        fails.append(f"{name}: basis is not column proper")
    return mat


def _is_zero_matrix(rows):
    return all(not e for row in rows for e in row)


def _monic_chain(polys, ascending, name, fails):
    for p in polys:
        if not p or p[-1] != 1:
            fails.append(f"{name}: entry not monic")
            return
    for a, b in zip(polys, polys[1:]):
        lo, hi = (a, b) if ascending else (b, a)
        if not exact.divides(lo, hi):
            fails.append(f"{name}: divisibility chain broken")
            return


def analyze_summary(rep):
    """The golden fields of a structural report. Bases are left out: their
    normalisation is not pinned."""
    out = {
        "kind": rep["kind"],
        "rank": rep["rank"],
        "inf_orders": rep["inf_orders"],
        "colspan": rep["colspan"]["indices"],
        "rowspan": rep["rowspan"]["indices"],
        "right_null": rep["right_null"]["indices"],
        "left_null": rep["left_null"]["indices"],
    }
    if rep["kind"] == "polynomial":
        out.update(
            degree=rep["degree"],
            invariant_factors=rep["invariant_factors"],
            inf_partial_mults=rep["inf_partial_mults"],
        )
    else:
        out.update(numerators=rep["numerators"], denominators=rep["denominators"])
    return out


def check_analyze(doc, out_text):
    fails = []
    rep = json.loads(out_text)
    m, n = doc["m"], doc["n"]
    rational = any(isinstance(e, dict) for e in doc["entries"])
    if rep.get("kind") != ("rational" if rational else "polynomial"):
        return [f"kind {rep.get('kind')!r} does not match the input"]
    if (rep["m"], rep["n"]) != (m, n):
        return ["reported shape differs from the input"]
    r = rep["rank"]
    if not 1 <= r <= min(m, n):
        return [f"rank {r} out of range"]
    if any(v != "pass" for v in rep["identities"].values()):
        fails.append("report marks an identity as failed")

    if rational:
        rat_rows = _rational_rows(doc)
        right_rows = _cleared_rows(rat_rows)
        left_rows = _cleared_rows(
            [[rat_rows[i][j] for i in range(m)] for j in range(n)]
        )
        value_at = _rational_value(rat_rows)
    else:
        right_rows = _poly_rows(doc)
        left_rows = exact.transpose(right_rows, n)
        value_at = _poly_value(right_rows)

    k_idx = rep["colspan"]["indices"]
    l_idx = rep["rowspan"]["indices"]
    d_idx = rep["right_null"]["indices"]
    v_idx = rep["left_null"]["indices"]
    _check_basis(rep["colspan"], m, r, "colspan", fails)
    _check_basis(rep["rowspan"], n, r, "rowspan", fails)
    N = _check_basis(rep["right_null"], n, n - r, "right_null", fails)
    L = _check_basis(rep["left_null"], m, m - r, "left_null", fails)
    if N is not None and n > r and not _is_zero_matrix(exact.matmul(right_rows, N)):
        fails.append("P @ right_null_basis != 0")
    if L is not None and m > r and not _is_zero_matrix(exact.matmul(left_rows, L)):
        fails.append("left_null_basis^T @ P != 0")
    if _rank_at_points(value_at, r) != r:
        fails.append("rank at sample points differs from the reported rank")
    if sum(v_idx) != sum(k_idx) or sum(d_idx) != sum(l_idx):
        fails.append("dual index sums differ")

    q = rep["inf_orders"]
    if len(q) != r or q != sorted(q):
        fails.append("inf_orders not ascending of length r")
    if rational:
        eps = [exact.from_json(p) for p in rep["numerators"]]
        psi = [exact.from_json(p) for p in rep["denominators"]]
        if len(eps) != r or len(psi) != r:
            return fails + ["numerators/denominators not of length r"]
        _monic_chain(eps, True, "numerators", fails)
        _monic_chain(psi, False, "denominators", fails)
        for e, p in zip(eps, psi):
            if exact.degree(exact.gcd(e, p)) != 0:
                fails.append("invariant rational function not in lowest terms")
                break
        total = (sum(k_idx) + sum(l_idx) + sum(map(exact.degree, eps))
                 - sum(map(exact.degree, psi)) + sum(q))
        if total != 0:
            fails.append("rational index sum identity fails")
    else:
        d = max(exact.degree(e) for row in right_rows for e in row)
        if rep["degree"] != d:
            fails.append(f"degree {rep['degree']} differs from the input degree {d}")
        alpha = [exact.from_json(p) for p in rep["invariant_factors"]]
        f = rep["inf_partial_mults"]
        if len(alpha) != r or len(f) != r:
            return fails + ["invariant data not of length r"]
        _monic_chain(alpha, True, "invariant_factors", fails)
        if f[0] != 0 or f != sorted(f):
            fails.append("partial multiplicities of infinity not 0 = f_1 <= ...")
        if [fi - d for fi in f] != q:
            fails.append("inf_orders != f - degree")
        deg_alpha = sum(map(exact.degree, alpha))
        if sum(d_idx) + sum(v_idx) + sum(f) + deg_alpha != r * d:
            fails.append("index sum theorem fails")
        if sum(k_idx) + sum(l_idx) + sum(f) + deg_alpha != r * d:
            fails.append("span index sum identity fails")
    return fails


def roundtrip_summary(out):
    return {
        "verdict": out["verification"]["verdict"],
        "shape": [out["matrix"]["m"], out["matrix"]["n"]],
    }


def check_roundtrip(doc, out_text):
    out = json.loads(out_text)
    fails = []
    ver = out["verification"]
    if ver["verdict"] != "pass" or ver["mismatches"]:
        fails.append(f"verify failed: {ver['mismatches']}")
    mat = out["matrix"]
    m, n, r = doc["m"], doc["n"], doc["r"]
    if (mat["m"], mat["n"]) != (m, n):
        return fails + ["realized matrix has the wrong shape"]
    if doc["variant"].startswith("R"):
        value_at = _rational_value(_rational_rows(mat))
    else:
        rows = _poly_rows(mat)
        d = max(exact.degree(e) for row in rows for e in row)
        if d != doc["d"]:
            fails.append(f"realized degree {d}, prescribed {doc['d']}")
        value_at = _poly_value(rows)
    if _rank_at_points(value_at, r) != r:
        fails.append("realized matrix has the wrong rank at sample points")
    return fails


def minors_summary(out):
    return {}


def check_minors(doc, out_text):
    out = json.loads(out_text)
    Z = doc["Z"]
    size = doc["matrix"]["m"]
    I, J = out["I"], out["J"]
    if out["Z"] != Z:
        return ["Z not echoed"]
    if len(I) != len(Z) or len(J) != len(Z):
        return ["I or J has the wrong length"]
    fails = []
    zstar = [size - z + 1 for z in reversed(Z)]
    for name, idx, bound in (("I", I, zstar), ("J", J, Z)):
        if any(a >= b for a, b in zip(idx, idx[1:])) or idx[0] < 1:
            fails.append(f"{name} is not a strictly increasing 1-based tuple")
        if any(a > b for a, b in zip(idx, bound)):
            fails.append(f"{name} exceeds its bound")
    if fails:
        return fails
    rows = _poly_rows(doc["matrix"])
    sub = [[rows[i - 1][j - 1] for j in J] for i in I]
    max_deg = max(exact.degree(e) for row in sub for e in row)
    # a nonzero k x k minor of degree <= k * max_deg has that many roots
    for x in exact.points(len(Z) * max(max_deg, 0) + 1):
        if exact.scalar_rank([[exact.evaluate(e, x) for e in row] for row in sub]) == len(Z):
            return []
    return ["selected minor vanishes"]


CHECKS = {
    "analyze": (check_analyze, analyze_summary),
    "roundtrip": (check_roundtrip, roundtrip_summary),
    "minors": (check_minors, minors_summary),
}


def check(workload, item, out_text, golden=None):
    """Failure reasons of one operation's output; golden maps item index to
    the expected input digest and summary for the default seed's pass 0."""
    fn, summarize = CHECKS[workload]
    try:
        fails = fn(item.doc, out_text)
        if golden is not None:
            want = golden.get(str(item.index))
            if want is None or want["input"] != digest(item.text):
                fails.append("input differs from the golden corpus")
            elif want["expect"] != summarize(json.loads(out_text)):
                fails.append("output differs from the golden data")
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        fails = [f"malformed output: {type(exc).__name__}: {exc}"]
    return fails
