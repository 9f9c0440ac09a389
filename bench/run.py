"""Benchmark of the extremal-moments solver.

Run from the repository root:

    python3 bench/run.py --workload exact --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py`` and BENCHMARK.json): exact, float_twins,
paper_cli.  One caller in one thread sends the next call when the previous
one returns (closed loop).  After one untimed warm-up call of each kind of
case, the run makes passes over the workload's cases, each pass in a fresh
order drawn from ``--seed``, until ``--seconds`` are used up; the last pass
stops early at the first call that would overrun.

Every reported time is scaled to a nominal machine speed gauged between
calls (see REF_NOMINAL_S).  pass_s is the sum over cases of each case's
median time; setup_s is the median of SETUP_PROBES set-ups, each in a fresh
interpreter.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half on whole passes with every public function of the
package wrapped (``tracing.py``), prints the per-layer metrics and a per-case
table, and writes the spans to ``.bench_out/``.  The last line of standard
output is the JSON result; lines before it starting with ``#`` are
diagnostics.
"""

from __future__ import annotations

import os

# One thread: the BLAS pool is sized before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import json
import math
import pathlib
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import namedtuple
from fractions import Fraction as F

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5  # set-ups in fresh interpreters; setup_s is their median

#: One timed call: case index, start, seconds, oracle verdict, and what the
#: table shows.  ``certified`` marks a Measure/NoMeasure verdict (exit 0 or 2
#: of solve and extend), the answers the solver promises to get right.
Call = namedtuple("Call",
                  "case start seconds verdict status rank v note certified")

#: Machine-speed scaling.  The machine this benchmark was built on (a 2-vCPU
#: VM on a shared host) runs 30% to 2.6x slower for stretches of tens of
#: seconds to minutes, and fixed work of the solver's kinds slows down with
#: it: over 200 s of interleaved samples, the medians of single solver and
#: CLI calls over 20-s blocks spread by 21-37% (IQR / median) and their
#: ratio to the time of ``reference_work()`` by 3-12%.  So the run times
#: ``reference_work()`` between calls, at most every REF_EVERY_S, and every
#: reported time T becomes T * REF_NOMINAL_S / (median reference time within
#: REF_WINDOW_S of the call): seconds on a machine where the reference work
#: takes REF_NOMINAL_S.  (A window of 4 s rather than 2 s, and the collector
#: kept out of the gauge, cut the spread of the exact workload's tail over
#: five 40-s stretches from 0.20 to 0.07.)  The reference is the benchmark's
#: own code, so a change to the package moves the scaled times in full.  The
#: unscaled times are printed beside them.
REF_NOMINAL_S = 0.030  # near reference_work()'s median in runs on that VM
REF_EVERY_S = 0.5
REF_WINDOW_S = 4.0

#: solve_tail_ms pools this many samples of each case, its calls' quantiles
#: at 1/9, ..., 8/9.  Every case weighs the same, and the tail is the same
#: percentile in every run of a workload whatever the number of calls (a
#: slow run of ``exact`` makes two passes, a fast one four).  solve_p50_ms
#: is the median over cases of each case's median; over pooled calls it
#: would sit on the edge between two cases' clusters of samples.
CALLS_PER_CASE = 8

#: The traced passes report the median of their fastest third (per-layer
#: numbers are not scaled).
KEEP_SHARE = 1 / 3


def import_package():
    src = ROOT / "src"
    if not (src / "extremal_moments" / "__init__.py").is_file():
        raise SystemExit(f"bench: {src}/extremal_moments not found; run from "
                         "the root of a checkout")
    sys.path.insert(0, str(src))
    import extremal_moments
    from extremal_moments import cli
    if pathlib.Path(extremal_moments.__file__).resolve().parent.parent != src:
        raise SystemExit("bench: extremal_moments imported from outside src/")
    return extremal_moments, cli


def set_up(workload):
    """Import the package and build the inputs; returns (seconds, em, cli,
    cases)."""
    start = time.perf_counter()
    em, cli = import_package()
    cases = workloads.plan(workload, ROOT)
    workloads.build_inputs(em, cases)
    return time.perf_counter() - start, em, cli, cases


def probe_set_up(workload, seed, refs) -> tuple:
    """Set-up in a fresh interpreter, bracketed by reference samples;
    returns (start, seconds)."""
    sample_reference(refs)
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    sample_reference(refs)
    return start, float(out.stdout.strip().splitlines()[-1])


def int_loop(loops) -> int:
    acc = 0
    for i in range(loops):
        acc = (acc + i * i) % 1_000_003
    return acc


def machine_reference() -> float:
    """Seconds for a fixed pure-Python loop: the drift diagnostic printed
    before and after the timed passes."""
    start = time.perf_counter()
    int_loop(1_000_000)
    return time.perf_counter() - start


def reference_work() -> None:
    """Fixed work of the solver's kinds: small-integer bytecode, Fraction
    (big-integer) elimination and a polynomial remainder sequence, dict, sort
    and string work, and small numpy eigenvalue, fit and rank calls.  Call
    it only after the set-up has imported numpy."""
    import numpy

    matrix = numpy.random.default_rng(0).standard_normal((24, 24))
    xs = numpy.linspace(-1.0, 1.0, 60)
    ys = numpy.cos(3.0 * xs)
    for _ in range(36):
        numpy.linalg.eigvals(matrix)
        numpy.polyfit(xs, ys, 12)
        numpy.linalg.matrix_rank(matrix)
    int_loop(60_000)
    n = 9
    m = [[F(1, i + j + 1) + F(i * j, 7) for j in range(n)] for i in range(n)]
    prev = F(1)
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    p = [F(i * i - 7, i + 1) for i in range(14)]
    q = [F(3 * i + 1, 2 * i + 3) for i in range(13)]
    while len(q) > 1:
        while len(p) >= len(q):
            c = p[0] / q[0]
            pad = q + [F(0)] * (len(p) - len(q))
            p = [a - c * b for a, b in zip(p, pad)][1:]
        p, q = q, p
    counts = {}
    for i in range(20_000):
        key = i * 7919 % 5003
        counts[key] = counts.get(key, 0) + i
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])
    " ".join(f"{a}:{b}" for a, b in ranked[:2000])


def sample_reference(refs) -> float:
    """Time reference_work(); appends (end time, seconds) to *refs* and
    returns the seconds.  The cyclic garbage collector is off meanwhile, so
    that a collection of the solver's garbage does not land in the gauge."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
    finally:
        gc.enable()
    refs.append((end, end - start))
    return end - start


def speed_at(refs, start, end) -> float:
    """Median reference time within REF_WINDOW_S of [start, end], or the
    nearest sample's if none falls there."""
    near = [s for t, s in refs
            if start - REF_WINDOW_S <= t <= end + REF_WINDOW_S]
    if not near:
        near = [min(refs, key=lambda r: min(abs(r[0] - start),
                                            abs(r[0] - end)))[1]]
    return statistics.median(near)


def scaled(seconds, refs, start) -> float:
    return seconds * REF_NOMINAL_S / speed_at(refs, start, start + seconds)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def self_test(em) -> list:
    """Oracle checks on planted errors; returns the failures."""
    atoms = ((F(-1), F(2)), (F(0), F(-1, 2)), (F(3, 4), F(1)))
    densities = (F(1, 2), F(1, 3), F(2))
    case = workloads.Case("self-test", 2, 1, atoms, densities)
    case.expected_rank = oracle.exact_rank(2, 1, atoms)
    report = em.SolveReport
    good = report("Measure", rank=3, v=3,
                  measure=em.AtomicMeasure(2, atoms, densities))
    moved = report("Measure", rank=3, v=3, measure=em.AtomicMeasure(
        2, ((F(-1), F(2) + F(1, 1000)),) + atoms[1:], densities))
    heavier = report("Measure", rank=3, v=3, measure=em.AtomicMeasure(
        2, atoms, (densities[0] * F(101, 100),) + densities[1:]))
    refuted = report("NoMeasure", rank=3, v=3, reason="Inconsistent")
    problems = []
    if oracle.judge_solve(case, good)[0] != oracle.CORRECT:
        problems.append("the generating measure is not accepted")
    for label, bad in (("moved atom", moved), ("perturbed density", heavier),
                       ("NoMeasure on atomic data", refuted)):
        if oracle.judge_solve(case, bad)[0] != oracle.WRONG:
            problems.append(f"{label} is not marked wrong")
    cli_case = workloads.Case("self-test cli", fixture="example15",
                              command="solve", argv=("solve", ""))
    moments = {idx: sum(rho * math.prod(x ** e for x, e in zip(w, idx))
                        for w, rho in oracle.EXAMPLE15)
               for idx in oracle.monomials(2, 4)}
    lines = ["status: Measure", "rank M(n) = 4, card variety = 4",
             "atoms (4):"]
    for i, (w, rho) in enumerate(oracle.EXAMPLE15):
        rho = rho * 1.01 if i == 0 else rho
        lines.append(f"  ({w[0]!r}, {w[1]!r}) density {rho!r}")
    if oracle.judge_cli(cli_case, 0, "\n".join(lines), moments)[0] \
            != oracle.WRONG:
        problems.append("perturbed CLI measure is not marked wrong")
    return problems


def warm_up(em, cli, cases) -> None:
    """One untimed call of the smallest case of each kind (dimension,
    arithmetic, CLI command), so lazy imports and first-call costs are paid
    before the clock runs."""
    smallest = {}
    for case in cases:
        kind = (case.d, case.exact, case.command)
        if kind not in smallest or case.n < smallest[kind].n:
            smallest[kind] = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for case in smallest.values():
            workloads.call(em, cli, case)


def new_record() -> dict:
    return {"calls": [], "errors": [], "rank_warnings": [],
            "other_warnings": set(), "last": {}, "refs": []}


def run_pass(em, cli, cases, order, tracer, moments, record, stop_at=None):
    """One timed pass over *cases* in *order*; returns (wall time, whether
    the pass completed).  With *stop_at*, the pass ends before a call that
    would run past it, judged by that case's previous time.  Latencies and
    verdicts are appended to *record*; answers are judged after the clock
    stops.  Untraced passes time ``reference_work()`` between calls; the
    wall time leaves it out."""
    answers = []
    last = record["last"]
    refs = record["refs"]
    ref_s = 0.0
    complete = True
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        for i in order:
            case = cases[i]
            if stop_at is not None and \
                    time.perf_counter() + last.get(i, 0.0) > stop_at:
                complete = False
                break
            if tracer is not None:
                tracer.instance = i
            elif not refs or time.perf_counter() - refs[-1][0] >= REF_EVERY_S:
                ref_s += sample_reference(refs)
            t0 = time.perf_counter()
            try:
                result = workloads.call(em, cli, case)
            except Exception:  # counted as a failed operation, not raised
                result = traceback.format_exc(limit=3)
                record["errors"].append(f"{case.label}: {result}")
            answers.append((i, t0, time.perf_counter() - t0, result))
            last[i] = answers[-1][2]
        wall = time.perf_counter() - start - ref_s
    for i, t0, elapsed, result in answers:
        if isinstance(result, str):
            record["calls"].append(Call(i, t0, elapsed, "error", "exception",
                                        None, None, "", False))
        else:
            record["calls"].append(Call(i, t0, elapsed,
                                        *judge(cases[i], result, moments)))
    if complete:
        record["rank_warnings"].append(
            sum(1 for w in caught if w.category.__name__ == "RankWarning"))
    for w in caught:
        if w.category.__name__ != "RankWarning":
            record["other_warnings"].add(f"{w.category.__name__}: {w.message}")
    return wall, complete


def timed_passes(em, cli, cases, moments, seconds, rng, record):
    """Untraced passes in fresh orders until *seconds* are used; the first
    pass always completes.  Returns the wall times of the complete passes."""
    stop_at = time.perf_counter() + seconds
    walls = []
    while time.perf_counter() < stop_at:
        order = rng.sample(range(len(cases)), len(cases))
        wall, complete = run_pass(em, cli, cases, order, None, moments,
                                  record, stop_at if walls else None)
        if not complete:
            break
        walls.append(wall)
    sample_reference(record["refs"])
    return walls


def judge(case, result, moments):
    """The Call fields after ``seconds`` for one answer."""
    if case.argv is None:
        verdict, why = oracle.judge_solve(case, result)
        v = "inf" if result.v == math.inf else result.v
        return (verdict, result.status, result.rank, v, why,
                result.status in ("Measure", "NoMeasure"))
    code, out = result
    verdict, why = oracle.judge_cli(case, code, out, moments[case.argv[1]])
    return (verdict, f"exit {code}", None, None, why,
            case.command in ("solve", "extend") and code in (0, 2))


def fastest(values) -> list:
    """The fastest ceil(KEEP_SHARE * n) of *values*, sorted."""
    ordered = sorted(values)
    return ordered[:math.ceil(KEEP_SHARE * len(ordered))]


def share(verdicts, kinds) -> float:
    """Share of calls whose verdict is one of *kinds*, each case weighted
    equally, so that the calls of an unfinished last pass do not move it."""
    return statistics.fmean(sum(v in kinds for v in case) / len(case)
                            for case in verdicts.values())


def pooled(per_case) -> list:
    """CALLS_PER_CASE samples of each case's times: their quantiles at
    1/(CALLS_PER_CASE+1), ..., CALLS_PER_CASE/(CALLS_PER_CASE+1)."""
    out = []
    for times in per_case.values():
        out += times * CALLS_PER_CASE if len(times) == 1 else \
            statistics.quantiles(times, n=CALLS_PER_CASE + 1,
                                 method="inclusive")
    return out


def tail(samples):
    """(value, percentile): the highest percentile with >= 10 samples
    beyond it."""
    ordered = sorted(samples)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(set_up(args.workload)[0])
        return 0

    _, em, cli, cases = set_up(args.workload)
    import numpy

    setup_refs = []
    setups = [probe_set_up(args.workload, args.seed, setup_refs)
              for _ in range(SETUP_PROBES)]

    moments = {}
    for case in cases:
        if case.argv is None:
            case.expected_rank = oracle.exact_rank(case.d, case.n, case.atoms)
        elif case.argv[1] not in moments:
            moments[case.argv[1]] = oracle.load_moments(case.argv[1])
    problems = self_test(em)
    if problems:
        print("bench: oracle self-test failed: " + "; ".join(problems),
              file=sys.stderr)
        return 3

    rng = random.Random(args.seed)
    reference = [machine_reference()]
    start = time.perf_counter()
    warm_up(em, cli, cases)
    untraced = args.seconds - (time.perf_counter() - start)
    record = new_record()
    walls = timed_passes(em, cli, cases, moments,
                         untraced / 2 if args.trace else untraced, rng, record)
    if args.trace:
        traced, trace_lines = trace_passes(em, cli, cases, moments,
                                           start + args.seconds, rng, args)
    reference.append(machine_reference())

    calls = record["calls"]
    attempted = len(calls)
    errors = len(record["errors"])
    wrong = sum(1 for c in calls if c.verdict == oracle.WRONG)
    certified_wrong = sum(1 for c in calls
                          if c.verdict == oracle.WRONG and c.certified)
    refs = record["refs"]
    per_case = {}
    verdicts = {}
    for c in calls:
        per_case.setdefault(c.case, []).append(c)
        verdicts.setdefault(c.case, []).append(c.verdict)
    raw_ms = {i: [c.seconds * 1000.0 for c in mine]
              for i, mine in per_case.items()}
    ms = {i: [scaled(c.seconds, refs, c.start) * 1000.0 for c in mine]
          for i, mine in per_case.items()}
    fewest = min(len(times) for times in ms.values())
    latencies = pooled(ms)
    tail_ms, tail_pct = tail(latencies)
    wrong_share = share(verdicts, (oracle.WRONG, "error"))
    setup_s = [scaled(seconds, setup_refs, start) for start, seconds in setups]

    diag = [
        f"workload={args.workload} seed={args.seed} "
        f"complete passes={len(walls)} cases={len(cases)} calls={attempted}",
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"nproc={os.cpu_count()} "
        f"affinity={len(os.sched_getaffinity(0))} "
        f"blas_threads={BLAS_THREADS} commit={git_commit()}",
        "machine_ref_s (fixed pure-Python loop, before/after): "
        + " / ".join(f"{r:.4f}" for r in reference),
        f"latency samples: {CALLS_PER_CASE} quantiles per case (each case "
        f"has {fewest} calls or more), "
        f"{len(latencies)} samples; solve_tail_ms is p{tail_pct:.1f} of "
        f"them, solve_p50_ms the median of {len(ms)} case medians",
        f"reference_work: {len(refs)} samples, median "
        f"{statistics.median(s for _, s in refs):.5f} s, range "
        f"{min(s for _, s in refs):.5f}-{max(s for _, s in refs):.5f} s; "
        f"times are scaled to {REF_NOMINAL_S} s",
        f"unscaled: setup_s {statistics.median(s for _, s in setups):.4f}, "
        f"pass_s {sum(map(statistics.median, raw_ms.values())) / 1000:.4f}, "
        f"solve_p50_ms "
        f"{statistics.median(map(statistics.median, raw_ms.values())):.3f}, "
        f"solve_tail_ms {tail(pooled(raw_ms))[0]:.3f}",
        f"wrong_share={wrong_share:.4f} (per case; wrong calls {wrong}, "
        f"exceptions {errors}, of {attempted}); "
        f"wrong certified verdicts {certified_wrong}",
        f"variety.rank_warnings per complete pass: {record['rank_warnings']}",
        "setup samples s (scaled): " + ", ".join(f"{s:.4f}" for s in setup_s),
        "complete pass walls s: " + ", ".join(f"{w:.4f}" for w in walls),
    ]
    diag += [f"warning: {w}" for w in sorted(record["other_warnings"])]
    diag += [f"exception: {e.strip()}" for e in record["errors"][:3]]
    diag += case_table(cases, calls, ms)
    if args.trace:
        diag += trace_lines
        metrics = traced
        untraced_pass = statistics.median(fastest(walls))
        metrics["trace.untraced_pass_s"] = (untraced_pass, "s")
        metrics["trace.overhead_s"] = (
            traced["trace.pass_s"][0] - untraced_pass, "s")
        for name, (value, unit) in sorted(metrics.items()):
            diag.append(f"{name} = {value} {unit}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "pass_s": (sum(map(statistics.median, ms.values())) / 1000.0,
                       "s"),
            "solve_p50_ms": (statistics.median(map(statistics.median,
                                                   ms.values())), "ms"),
            "solve_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
            "sound_share": (1.0 - wrong_share, "ratio"),
            "correct_share": (share(verdicts, (oracle.CORRECT,)), "ratio"),
        }
    for line in diag:
        print(f"# {line}")
    print(json.dumps({
        "correct": errors == 0 and certified_wrong == 0,
        "attempted": attempted,
        "failed": errors,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def trace_passes(em, cli, cases, moments, stop_at, rng, args):
    """Whole traced passes while the next one fits before *stop_at* (at least
    one); returns the per-layer metrics (median over the fastest third of
    the passes) and one diagnostic line per pass."""
    tracer = tracing.Tracer()
    tracer.install(em)
    try:
        tracer.instance = "setup"
        workloads.build_inputs(em, cases)
        synth_s = sum((end - start for name, start, end, _, _, outer
                      in tracer.spans
                      if name == "synth.beta_from_atoms" and outer), 0.0)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
        spans_path.write_text("index\tname\tstart\tend\tparent\tinstance\n")
        tracer.dump(spans_path)
        tracer.clear()
        record = new_record()
        per_pass = []
        walls = []
        while not walls or time.perf_counter() + walls[-1] <= stop_at:
            order = rng.sample(range(len(cases)), len(cases))
            wall, _ = run_pass(em, cli, cases, order, tracer, moments, record)
            walls.append(wall)
            per_pass.append(tracing.layer_metrics(tracer.spans,
                                                  tracer.payload, wall))
            tracer.dump(spans_path)
            tracer.clear()
    finally:
        tracer.uninstall()
    kept = [per_pass[i] for i in sorted(range(len(walls)),
                                        key=walls.__getitem__)[:len(
                                            fastest(walls))]]
    metrics = {}
    for name in per_pass[0]:
        unit = "s" if name.endswith((".s", "_s")) else \
            "ratio" if name.endswith("_share") else "count"
        metrics[name] = (statistics.median(p[name] for p in kept), unit)
    metrics["variety.rank_warnings"] = (
        statistics.median(record["rank_warnings"]), "count")
    metrics["synth.beta_from_atoms.s"] = (synth_s, "s")
    metrics["trace.pass_s"] = (statistics.median(fastest(walls)), "s")
    lines = [f"traced pass {i}: self times {p['trace.self_total_s']:.6f} s + "
             f"unattributed {p['trace.unattributed_s']:.6f} s = "
             f"{p['trace.self_total_s'] + p['trace.unattributed_s']:.6f} s; "
             f"wall {wall:.6f} s"
             for i, (p, wall) in enumerate(zip(per_pass, walls))]
    lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics, lines


def case_table(cases, calls, scaled_ms) -> list:
    rows = ["case | verdict | status | rank/exact | v | median ms | "
            "scaled ms | note"]
    for i, case in enumerate(cases):
        mine = [c for c in calls if c.case == i]
        if not mine:
            continue
        c = mine[0]
        ms = statistics.median(m.seconds for m in mine) * 1000.0
        rank = "-" if c.rank is None else f"{c.rank}/{case.expected_rank}"
        rows.append(f"{case.label} | {c.verdict} | {c.status} | {rank} | "
                    f"{'-' if c.v is None else c.v} | {ms:.1f} | "
                    f"{statistics.median(scaled_ms[i]):.1f} | {c.note}")
    return rows


if __name__ == "__main__":
    sys.exit(main())
