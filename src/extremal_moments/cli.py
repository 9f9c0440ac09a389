"""Command-line interface.

Subcommands: analyze (property battery), solve (extremal solver), variety
(kernel relations and zero set), extend (recursive extension search with
solve handoff), synth (moment data from measures, functionals, or the
complex circle family).

Exit codes: 0 success / measure exists; 1 malformed input or an --out
file that cannot be written; 2 certified nonexistence; 3 inconclusive.
Identical inputs and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .extension import extension_search
from .extremal import (
    AtomicMeasure,
    dump_measure,
    load_measure,
    solve_extremal,
)
from .moments import (
    KernelReport,
    dump_multisequence,
    load_multisequence,
)
from .pipeline import Pipeline
from .polycore import (
    InputError,
    Polynomial,
    compact_scalar,
    monomial_to_string,
    parse_scalar,
    poly_to_string,
)
from .synth import (
    beta_from_atoms,
    beta_from_functional,
    complex_to_real,
    example14_gamma,
    load_functional,
)
from .variety import VarietyReport, dump_points, load_points

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_MEASURE = 2
EXIT_INCONCLUSIVE = 3


def relation_strings(report: KernelReport) -> list:
    """Kernel relations in delta form pretty-printed as 'M = combination':
    M is the one free (non-pivot) monomial of each, with coefficient 1."""
    return [f"{monomial_to_string(unit)} = "
            f"{poly_to_string(Polynomial.monomial(report.d, unit) - p)}"
            for unit, p in zip(report.free, report.kernel)]


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _point_strs(point) -> list:
    return [compact_scalar(x) for x in point]


def _v_str(v) -> str:
    if v is None:
        return "unknown"
    if v == math.inf:
        return "infinite"
    return str(int(v))


def _variety_json(variety: VarietyReport) -> dict:
    return {
        "status": variety.status,
        "points": [_point_strs(w) for w in variety.points],
        "witness": poly_to_string(variety.witness) if variety.witness else None,
        "reason": variety.reason,
        "multiple_roots": variety.multiple_roots,
    }


class _Emitter:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list = []
        self.payload: dict = {}

    def line(self, text: str):
        self.lines.append(text)

    def set(self, key: str, value):
        self.payload[key] = value

    def flush(self):
        if self.fmt == "structured":
            print(json.dumps(self.payload, indent=2, sort_keys=True))
        else:
            for line in self.lines:
                print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    beta = load_multisequence(args.moments, args.mode)
    pipe = Pipeline(beta)
    kernel = pipe.kernel
    out = _Emitter(args.format)
    out.set("command", "analyze")
    out.line(f"data: d={beta.d}, degree={beta.degree}, "
             f"mode={'exact' if beta.is_exact else 'float'}")
    out.set("d", beta.d)
    out.set("degree", beta.degree)
    out.set("exact", beta.is_exact)
    out.line(f"M({beta.n}): size {kernel.basis and len(kernel.basis)}, "
             f"rank {kernel.rank}, psd {pipe.psd.status}")
    out.set("rank", kernel.rank)
    out.set("psd", pipe.psd.status)
    relations = relation_strings(kernel)
    for rel in relations:
        out.line(f"relation: {rel}")
    out.set("relations", relations)
    out.line(f"recursively generated: {pipe.recursiveness.status}")
    out.set("recursiveness", pipe.recursiveness.status)
    if pipe.flatness is not None:
        out.line(f"flat over M({beta.n - 1}): {pipe.flatness.flat} "
                 f"(rank {pipe.flatness.rank_previous} -> "
                 f"{pipe.flatness.rank})")
        out.set("flat", pipe.flatness.flat)
    if pipe.variety is not None:
        out.line(f"variety: {pipe.variety.status}, "
                 f"card {_v_str(pipe.variety.v)}")
        for w in pipe.variety.points:
            out.line("  point: (" + ", ".join(_point_strs(w)) + ")")
        out.set("variety", _variety_json(pipe.variety))
    if pipe.consistency is not None:
        verdict = pipe.consistency
        out.line(f"consistency: {verdict.status}"
                 + (f" (witness {poly_to_string(verdict.witness)}, "
                    f"value {compact_scalar(verdict.value)})"
                    if verdict.status == "Inconsistent" else "")
                 + (f" ({verdict.reason})" if verdict.reason else ""))
        out.set("consistency", verdict.status)
    if pipe.injectivity is not None:
        out.line(f"point evaluations separate columns: "
                 f"{pipe.injectivity.injective} "
                 f"(rank M {pipe.injectivity.rank_m}, "
                 f"rank W {pipe.injectivity.rank_w})")
        out.set("injective", pipe.injectivity.injective)
    out.flush()
    return EXIT_OK


def _cmd_solve(args) -> int:
    beta = load_multisequence(args.moments, args.mode)
    points = load_points(args.points, args.mode) if args.points else None
    report = solve_extremal(beta, points)
    out = _Emitter(args.format)
    out.set("command", "solve")
    out.set("status", report.status)
    out.set("rank", report.rank)
    out.set("v", _v_str(report.v))
    out.set("reason", report.reason)
    out.line(f"status: {report.status}")
    if report.rank is not None:
        out.line(f"rank M(n) = {report.rank}, card variety = {_v_str(report.v)}")
    if report.reason:
        out.line(f"reason: {report.reason}")
    if report.witness is not None:
        out.line(f"witness: {poly_to_string(report.witness)}")
        out.set("witness", poly_to_string(report.witness))
        if report.value is not None:
            out.line(f"functional value at witness: "
                     f"{compact_scalar(report.value)}")
            out.set("value", compact_scalar(report.value))
    if report.kernel is not None:
        out.set("relations", relation_strings(report.kernel))
    if report.measure is not None:
        out.line(f"atoms ({report.measure.size}):")
        _emit_measure(out, report.measure)
    if report.residual is not None:
        out.line(f"max moment residual: {report.residual!r}")
        out.set("residual", repr(report.residual))
    out.flush()
    if args.out and report.measure is not None:
        dump_measure(report.measure, args.out)
    if report.status == "Measure":
        return EXIT_OK
    if report.status == "NoMeasure":
        return EXIT_NO_MEASURE
    return EXIT_INCONCLUSIVE


def _emit_measure(out: _Emitter, measure: AtomicMeasure) -> None:
    """One text line per atom; the "measure" key of structured output."""
    for w, rho in zip(measure.atoms, measure.densities):
        out.line("  (" + ", ".join(f"{float(x)!r}" for x in w)
                 + f") density {float(rho)!r}")
    out.set("measure", {
        "atoms": [_point_strs(w) for w in measure.atoms],
        "densities": [compact_scalar(r) for r in measure.densities],
    })


def _cmd_variety(args) -> int:
    beta = load_multisequence(args.moments, args.mode)
    pipe = Pipeline(beta)
    report = pipe.kernel
    out = _Emitter(args.format)
    out.set("command", "variety")
    out.set("rank", report.rank)
    out.line(f"rank M({beta.n}) = {report.rank}")
    relations = relation_strings(report)
    for rel in relations:
        out.line(f"relation: {rel}")
    out.set("relations", relations)
    if report.nullity == 0:
        out.line("kernel is trivial: variety is all of R^d")
        out.set("variety", _variety_json(
            VarietyReport("Infinite", reason="trivial kernel")))
        out.flush()
        return EXIT_OK
    variety = pipe.variety
    out.set("variety", _variety_json(variety))
    out.line(f"variety: {variety.status}, card {_v_str(variety.v)}")
    if variety.witness is not None:
        out.line(f"common factor: {poly_to_string(variety.witness)}")
    if variety.reason:
        out.line(f"reason: {variety.reason}")
    for w in variety.points:
        out.line("  point: (" + ", ".join(f"{float(x)!r}" for x in w) + ")")
    out.flush()
    if args.out and variety.status == "Finite" and variety.points:
        dump_points(variety.points, args.out)
    return EXIT_OK if variety.status != "Unknown" else EXIT_INCONCLUSIVE


def _cmd_extend(args) -> int:
    if args.steps < 1:
        raise InputError(f"--steps must be >= 1, got {args.steps}")
    beta = load_multisequence(args.moments, args.mode)
    search = extension_search(beta, args.steps)
    out = _Emitter(args.format)
    out.set("command", "extend")
    out.set("status", search.status)
    out.set("flat_level", search.flat_level)
    steps_json = []
    for step in search.steps:
        rank_to = step.flat.rank if step.flat else None
        out.line(
            f"M({step.source_n}) -> M({step.source_n + 1}): "
            f"well_defined={step.well_defined}"
            + (f", rank {rank_to}" if rank_to is not None else "")
            + (f", flat={step.flat.flat}" if step.flat is not None else "")
            + (f", psd={step.psd.status}" if step.psd is not None else ""))
        steps_json.append({
            "from": step.source_n,
            "well_defined": step.well_defined,
            "rank": rank_to,
            "flat": step.flat.flat if step.flat else None,
            "psd": step.psd.status if step.psd else None,
            "conflicts": len(step.conflicts),
            "undetermined": [list(i) for i in step.undetermined],
        })
    out.set("steps", steps_json)
    out.line(f"search: {search.status}"
             + (f" at M({search.flat_level})" if search.flat_level else ""))
    if search.status == "FlatAt":
        final = search.final
        handoff = solve_extremal(final)
        out.set("solve_status", handoff.status)
        out.line(f"handoff solve: {handoff.status}")
        if handoff.measure is not None:
            _emit_measure(out, handoff.measure)
            if args.out:
                dump_measure(handoff.measure, args.out)
        out.flush()
        return EXIT_OK if handoff.status == "Measure" else EXIT_INCONCLUSIVE
    out.flush()
    # A conflict between float moments may be rounding, not a certificate.
    if search.status == "NotPSD" \
            or search.status == "IllDefined" and beta.is_exact:
        return EXIT_NO_MEASURE
    return EXIT_INCONCLUSIVE


def _cmd_synth(args) -> int:
    sources = [s for s in (args.example14, args.functional, args.measure)
               if s is not None]
    if len(sources) != 1:
        raise InputError(
            "synth needs exactly one of --example14, --functional, --measure")
    if args.example14 is None:
        source = "--functional" if args.functional is not None \
            else "--measure"
        if args.degree is None:
            raise InputError(f"{source} requires --degree")
        if args.degree < 0:
            raise InputError(f"--degree must be >= 0, got {args.degree}")
    if args.example14 is not None:
        n_str, a_str = args.example14
        try:
            n = int(n_str)
        except ValueError:
            raise InputError(f"--example14 N must be an integer, "
                             f"got {n_str!r}") from None
        beta = complex_to_real(example14_gamma(n, parse_scalar(a_str,
                                                               args.mode)))
    elif args.functional is not None:
        functional = load_functional(args.functional, args.mode)
        beta = beta_from_functional(functional, args.degree)
    else:
        measure = load_measure(args.measure, args.mode)
        beta = beta_from_atoms(measure.atoms, measure.densities,
                               measure.d, args.degree)
    dump_multisequence(beta, args.out)
    if args.out:
        print(f"wrote moments: d={beta.d}, degree={beta.degree} -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on first use and then shared:
    each parse_args fills a fresh Namespace from the defaults."""
    parser = argparse.ArgumentParser(
        prog="extremal-moments",
        description="Truncated moment problems in the extremal case: "
                    "certificates and atomic representing measures.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, out=True):
        p.add_argument("--mode", choices=("exact", "float"), default=None,
                       help="force scalar interpretation of input values")
        if out:
            p.add_argument("--out", default=None,
                           help="write the resulting artifact to this file")

    def solver_flags(p):
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")

    p = sub.add_parser("analyze", help="property battery for moment data")
    p.add_argument("moments")
    common(p, out=False)
    solver_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("solve", help="extremal solver")
    p.add_argument("moments")
    p.add_argument("--points", default=None,
                   help="points file bypassing the variety solver")
    common(p)
    solver_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("variety", help="kernel relations and zero set")
    p.add_argument("moments")
    common(p)
    solver_flags(p)
    p.set_defaults(func=_cmd_variety)

    p = sub.add_parser("extend", help="recursive extension search")
    p.add_argument("moments")
    p.add_argument("--steps", type=int, default=3)
    common(p)
    solver_flags(p)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("synth", help="synthesize moment data")
    p.add_argument("--example14", nargs=2, metavar=("N", "A"), default=None,
                   help="complex circle family parameters")
    p.add_argument("--functional", default=None,
                   help="signed functional file")
    p.add_argument("--measure", default=None, help="atomic measure file")
    p.add_argument("--degree", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_synth)
    return parser


def run(argv=None) -> int:
    """Parse arguments and execute one command in-process; returns the
    process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse errors -> input error code
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
