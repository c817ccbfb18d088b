"""Outside-in per-layer timing of the library's public functions.

``Tracer.install`` replaces each listed function with a timing wrapper in
every loaded ``structura`` module that binds it (``extract`` and
``synthesis`` import ``smith_form`` by name, so patching ``polymat`` alone
would miss their calls), and each listed method on its class.
``uninstall`` puts the originals back. Nothing inside ``src/`` changes.

For each function the tracer keeps the number of calls, the total time, the
self time (total time minus the time of the wrapped calls it made) and the
number of calls that raised. Wrapping costs a few hundred nanoseconds per
call, which is a large share of a cheap function such as ``Poly.__mul__``;
end-to-end numbers therefore never come from a traced pass.
"""

from __future__ import annotations

import sys
import time

# layer -> public functions and methods ("Class.method") that are wrapped
TARGETS = {
    "qpoly": ("Poly.__mul__", "Poly.__divmod__", "poly_gcd"),
    "polymat": (
        "smith_form",
        "column_reduce",
        "det",
        "rank",
        "is_minimal_basis",
        "reversal",
        "mobius_frame",
        "scale_basis_mobius",
        "PolyMatrix.__matmul__",
    ),
    "extract": (
        "extract_poly_structure",
        "inf_structure",
        "extract_rational_structure",
        "verify",
        "spans_equal",
    ),
    "feasibility": ("check_feasibility", "Prescription.validate"),
    "synthesis": (
        "distribute_invariant_factors",
        "triangular_realization",
        "shape_degrees",
        "build_dual_minimal_bases",
        "realize_span",
        "realize_full",
        "realize_rational",
    ),
    "minors": ("select_nonzero_minor",),
    "jsonio": (
        "matrix_from_json",
        "prescription_from_json",
        "structural_report",
        "polymatrix_to_json",
        "verification_report_json",
    ),
}

# Qpoly functions are reported by calls and self time only: they are
# leaves or near-leaves, and the metric count has a cap.
SHORT_LAYERS = ("qpoly",)

SMITH = "polymat.smith_form"
TRIANGULAR = "synthesis.triangular_realization"
EXTRACTORS = ("extract.extract_poly_structure", "extract.extract_rational_structure")


def metric_names():
    """(name, unit) of every per-function metric, in report order."""
    out = []
    for layer, names in TARGETS.items():
        for fn in names:
            base = f"{layer}.{fn}"
            out.append((f"{base}.calls", "count"))
            out.append((f"{base}.self_s", "s"))
            if layer not in SHORT_LAYERS:
                out.append((f"{base}.total_s", "s"))
                out.append((f"{base}.raised", "count"))
    return out


class Tracer:
    def __init__(self):
        # name -> [calls, self seconds, total seconds, raised]
        self.stats = {
            f"{layer}.{fn}": [0, 0.0, 0.0, 0]
            for layer, names in TARGETS.items()
            for fn in names
        }
        self.smith_in_triangular = 0
        self.extracted = []  # structural data returned by the extractors
        self._stack = []  # time spent in wrapped callees, one slot per frame
        self._triangular_depth = 0
        self._restore = []

    def _wrap(self, name, fn):
        st = self.stats[name]
        stack = self._stack
        perf = time.perf_counter
        keep = self.extracted if name in EXTRACTORS else None
        is_smith, is_triangular = name == SMITH, name == TRIANGULAR
        tracer = self

        def wrapper(*args, **kwargs):
            if is_smith and tracer._triangular_depth:
                tracer.smith_in_triangular += 1
            elif is_triangular:
                tracer._triangular_depth += 1
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st[3] += 1
                raise
            finally:
                dt = perf() - t0
                st[0] += 1
                st[1] += dt - stack.pop()
                st[2] += dt
                if stack:
                    stack[-1] += dt
                if is_triangular:
                    tracer._triangular_depth -= 1
            if keep is not None:
                keep.append(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "structura" or key.startswith("structura."))
        ]
        for layer, names in TARGETS.items():
            home = sys.modules[f"structura.{layer}"]
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, orig))
                    self._restore.append((cls, meth, orig))
                    continue
                orig = getattr(home, fn_name)
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()


def coeff_bits(data):
    """Largest numerator or denominator bit length in extracted data."""
    polys = []
    for field in ("invariant_factors", "numerators", "denominators"):
        polys.extend(getattr(data, field, ()))
    for field in ("colspan_basis", "rowspan_basis", "right_null_basis", "left_null_basis"):
        for row in getattr(data, field).rows:
            polys.extend(row)
    best = 0
    for p in polys:
        for c in p.coeffs:
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best
