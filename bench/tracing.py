"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces every public function of the traced modules with
a timing wrapper, at every name that refers to it: the package imports with
``from .x import y``, so ``compute_variety`` is rebound in ``variety``,
``extremal``, ``consistency``, ``cli`` and the package namespace alike.
Spans (name, start, end, parent, instance) stay in memory until the run
writes them out.  A span's self time is its duration minus its children's.

``polycore`` is measured only through its callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from fractions import Fraction
from time import perf_counter

MODULES = ("_roots", "variety", "moments", "_linalg", "extremal",
           "consistency", "extension", "cli", "synth")

#: Spans whose arguments and results feed the size metrics.
KEEP = {"_roots.real_roots_exact", "variety.resultant_eliminate_y",
        "variety.compute_variety", "moments.rank_kernel",
        "extremal.verify_measure"}


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent, instance, outer)
        self.payload = {}    # span index -> (args, result) for KEEP names
        self.instance = None
        self._stack = []
        self._depth = {}
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        keep = name in KEEP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            depth[name] = depth.get(name, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                spans[index] = (name, start, end, parent, self.instance,
                                depth[name] == 0)
            if keep:
                self.payload[index] = (args, result)
            return result

        return wrapper

    def install(self, package) -> None:
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"{package.__name__}.{short}")
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) \
                        and obj.__module__ == module.__name__ \
                        and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(name, obj)
        prefix = package.__name__ + "."
        modules = [package] + [module for name, module in
                               sorted(sys.modules.items())
                               if name.startswith(prefix)]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def clear(self) -> None:
        self.spans.clear()
        self.payload.clear()

    def dump(self, path) -> None:
        """Append the spans as tab-separated lines."""
        with open(path, "a", encoding="utf-8") as handle:
            for i, (name, start, end, parent, instance, _) in enumerate(
                    self.spans):
                handle.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t"
                             f"{parent}\t{instance}\n")


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def _bits(coeffs) -> int:
    """Largest coefficient bit size of the primitive integer multiple."""
    fracs = [Fraction(c) for c in coeffs if c]
    if not fracs:
        return 0
    lcm = 1
    for c in fracs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in fracs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return max((v // g).bit_length() for v in ints)


def _degree(coeffs) -> int:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return len(coeffs) - 1


def _exact(coeffs) -> bool:
    return all(isinstance(c, (Fraction, int)) for c in coeffs)


def layer_metrics(spans, payload, pass_s) -> dict:
    """Metrics of one traced pass of *pass_s* seconds wall time."""
    total, self_s, calls = {}, {}, {}
    top = 0.0
    child = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _, outer = spans[i]
        dur = end - start
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        if outer:
            total[name] = total.get(name, 0.0) + dur
        if parent >= 0:
            child[parent] += dur
        else:
            top += dur

    m = {}

    def s(name):
        return total.get(name, 0.0)

    for name in ("_roots.real_roots_exact", "_roots.sturm_chain",
                 "_roots.squarefree_part", "_roots.real_roots_float",
                 "variety.compute_variety", "variety.resultant_eliminate_y",
                 "variety.vandermonde_VB", "moments.build_moment_matrix",
                 "moments.psd_check", "moments.rank_kernel",
                 "_linalg.row_reduce", "_linalg.solve_linear",
                 "extremal.solve_extremal", "extremal.verify_measure",
                 "consistency.consistency_check",
                 "consistency.reduced_consistency_test",
                 "extension.extension_search",
                 "extension.propagate_recursive_extension",
                 "cli.analyze_beta"):
        m[f"{name}.s"] = s(name)
    for name in ("_roots.real_roots_exact", "variety.compute_variety",
                 "cli.run"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("_roots.real_roots_exact", "_roots.sign_variations",
                 "_roots.real_roots_float", "variety.compute_variety",
                 "variety.resultant_eliminate_y", "moments.rank_kernel",
                 "_linalg.row_reduce", "consistency.reduced_consistency_test",
                 "extension.propagate_recursive_extension"):
        m[f"{name}.calls"] = calls.get(name, 0)

    roots = exact_roots = 0
    sizes = {"rr_deg": 0, "rr_bits": 0, "res_deg": 0, "res_bits": 0,
             "rank_size": 0}
    unknown = failed = 0
    for i, (args, result) in payload.items():
        name = spans[i][0]
        if name == "_roots.real_roots_exact":
            sizes["rr_deg"] = max(sizes["rr_deg"], _degree(args[0]))
            sizes["rr_bits"] = max(sizes["rr_bits"], _bits(args[0]))
            roots += len(result[0])
            exact_roots += sum(1 for r in result[0] if r.exact)
        elif name == "variety.resultant_eliminate_y":
            sizes["res_deg"] = max(sizes["res_deg"], _degree(result))
            if _exact(result):
                sizes["res_bits"] = max(sizes["res_bits"], _bits(result))
        elif name == "variety.compute_variety":
            unknown += result.status == "Unknown"
        elif name == "moments.rank_kernel":
            sizes["rank_size"] = max(sizes["rank_size"], args[0].size)
        elif name == "extremal.verify_measure":
            failed += not result.ok
    m["_roots.real_roots_exact.max_degree"] = sizes["rr_deg"]
    m["_roots.real_roots_exact.max_bits"] = sizes["rr_bits"]
    m["_roots.real_roots_exact.roots"] = roots
    m["_roots.real_roots_exact.exact_share"] = \
        exact_roots / roots if roots else 0.0
    m["variety.compute_variety.unknown"] = unknown
    m["variety.resultant_eliminate_y.max_degree"] = sizes["res_deg"]
    m["variety.resultant_eliminate_y.max_bits"] = sizes["res_bits"]
    m["moments.rank_kernel.max_size"] = sizes["rank_size"]
    m["extremal.verify_measure.failed"] = failed
    m["trace.self_total_s"] = sum(self_s.values())
    m["trace.unattributed_s"] = pass_s - top
    # Metric names start with a letter: _roots -> roots, _linalg -> linalg.
    return {name.lstrip("_"): value for name, value in m.items()}
