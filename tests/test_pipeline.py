"""One pipeline per command: every distinct M(n) is built, PSD-checked and
reduced once, and the variety is computed once.  The solver is still
reached through its module-level name, and reads every stage from one
pipeline, given or built from the data and any supplied points.

Calls are counted at every binding of the stage functions (the package
imports them by name into many modules), so a stage that some module calls
a second time is seen wherever it is called from.
"""

import collections
import contextlib
import functools
import io
import sys

import pytest

import extremal_moments as em
from extremal_moments import _linalg
from extremal_moments import cli as cli_module
from extremal_moments.cli import run
from extremal_moments.variety import VarietyReport

from conftest import fixture_path

STAGES = ("build_moment_matrix", "psd_check", "rank_kernel",
          "compute_variety", "solve_extremal")
FIXTURES = ("ex42_hyperbola", "example15", "prop61", "ex44", "prop61_deg8",
            "ex71", "thm62_a8_8")


@pytest.fixture
def calls(monkeypatch):
    """Counter of stage calls, counted at every binding in the package."""
    counts = collections.Counter()
    originals = {id(getattr(em, name)): name for name in STAGES}

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {}
    for module_name, module in sorted(sys.modules.items()):
        if module_name != "extremal_moments" \
                and not module_name.startswith("extremal_moments."):
            continue
        for attr, obj in list(vars(module).items()):
            name = originals.get(id(obj))
            if name is not None:
                wrapper = wrappers.setdefault(name, counted(name, obj))
                monkeypatch.setattr(module, attr, wrapper)
    return counts


def cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return run(list(argv))


def moments(fixture):
    return str(fixture_path(f"{fixture}.moments.json"))


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("command", ("analyze", "solve", "variety"))
def test_one_matrix_commands_run_each_stage_once(command, fixture, calls):
    cli(command, moments(fixture))
    assert calls["build_moment_matrix"] == 1
    assert calls["rank_kernel"] <= 1
    assert calls["psd_check"] == (0 if command == "variety" else 1)
    assert calls["compute_variety"] <= 1
    if command != "solve":
        assert calls["rank_kernel"] == 1


def test_analyze_reduces_once(calls):
    cli("analyze", moments("ex71"))
    assert calls == {"build_moment_matrix": 1, "psd_check": 1,
                     "rank_kernel": 1, "compute_variety": 1}


def test_solve_with_reduced_test_reuses_the_variety(calls):
    # The exact consistency check refutes thm62_a8_8 from the solver's
    # M(3), kernel and variety.
    assert cli("solve", moments("thm62_a8_8")) == 2
    assert calls == {"build_moment_matrix": 1, "psd_check": 1,
                     "rank_kernel": 1, "compute_variety": 1,
                     "solve_extremal": 1}


def test_extend_reuses_each_extension(calls):
    # M(3) -> M(4) -> M(5) is flat; the handoff solve reads M(5)'s stages.
    assert cli("extend", moments("ex71")) == 0
    assert calls == {"build_moment_matrix": 3, "psd_check": 3,
                     "rank_kernel": 3, "compute_variety": 1,
                     "solve_extremal": 1}


@pytest.mark.parametrize("fixture", FIXTURES)
def test_extend_builds_each_matrix_once(fixture, calls):
    search = em.extension_search(em.load_multisequence(moments(fixture)))
    extended = sum(step.extended is not None for step in search.steps)
    calls.clear()
    cli("extend", moments(fixture))
    assert calls["build_moment_matrix"] == 1 + extended
    assert calls["rank_kernel"] == 1 + extended
    assert calls["psd_check"] == 1 + extended
    assert calls["compute_variety"] <= 1


@pytest.mark.parametrize("fixture, size, rank", [
    ("ex71", 10, 8), ("prop61", 10, 8), ("example15", 6, 4)])
def test_exact_psd_reads_the_kernel_pivots(fixture, size, rank, monkeypatch):
    # M(n) is eliminated once, for its kernel, and the PSD decision is read
    # off that elimination's pivots; it agrees with psd_check(M(n)).
    shapes = []
    eliminate = _linalg._eliminate

    def counted(rows, ncols):
        shapes.append((len(rows), ncols))
        return eliminate(rows, ncols)

    monkeypatch.setattr(_linalg, "_eliminate", counted)
    pipe = em.Pipeline(em.load_multisequence(moments(fixture)))
    assert pipe.psd.ok and pipe.kernel.rank == rank
    assert shapes == [(size, size)]
    assert pipe.psd == em.psd_check(pipe.matrix)


def test_stages_are_kept(ex15):
    pipe = em.Pipeline(ex15)
    assert pipe.kernel is pipe.kernel
    assert pipe.variety is pipe.variety
    assert pipe.flatness.rank == pipe.kernel.rank == 4
    assert pipe.consistency.status == "Consistent"
    assert pipe.injectivity.injective


def test_flatness_matches_flatness_check(ex71):
    # The flatness stage compares rank M(n) with the rank of its M(n-1)
    # block, which is M(n-1) of the data truncated to degree 2n-2.
    pipe = em.Pipeline(ex71)
    lower = em.Multisequence(ex71.d, ex71.degree - 2, {
        idx: value for idx, value in ex71.values.items()
        if sum(idx) <= ex71.degree - 2})
    assert (pipe.flatness.rank, pipe.flatness.rank_previous) \
        == (pipe.kernel.rank, em.Pipeline(lower).kernel.rank)
    # An extension step reads flatness off the two kernel ranks; the
    # flatness stage of the extended data row-reduces the M(n) block.
    for step in em.extension_search(ex71).steps:
        assert step.flat == em.Pipeline(step.extended.beta).flatness


def test_trivial_kernel_has_no_variety():
    beta = em.beta_from_atoms([(0,), (1,), (2,)], [1, 1, 1], degree=4)
    pipe = em.Pipeline(beta)
    assert pipe.kernel.nullity == 0
    assert pipe.variety is None and pipe.consistency is None
    assert pipe.injectivity is None


def test_solver_reads_a_given_pipeline(ex15, calls):
    pipe = em.Pipeline(ex15)
    pipe.variety
    calls.clear()
    given, fresh = em.solve_extremal(pipe), em.solve_extremal(ex15)
    assert given.status == fresh.status == "Measure"
    assert given.measure == fresh.measure
    assert calls["compute_variety"] == 1  # the second, fresh solve only


def test_solver_reads_the_pipeline_analyze_built(monkeypatch, calls):
    built = []

    def record(*args):
        built.append(em.Pipeline(*args))
        return built[-1]

    monkeypatch.setattr(cli_module, "Pipeline", record)
    cli("analyze", moments("example15"))
    (pipe,) = built
    calls.clear()
    report = em.solve_extremal(pipe)
    assert report.status == "Measure"
    assert report.variety is pipe.variety
    assert calls["compute_variety"] == 0


def test_a_given_pipeline_takes_no_points(ex15):
    # Points belong to the pipeline they are the variety of.
    with pytest.raises(ValueError):
        em.solve_extremal(em.Pipeline(ex15), [(0, 0)])


@pytest.fixture
def consistency_checks(monkeypatch):
    """The varieties consistency_check runs on, at every binding."""
    checked = []
    check = em.consistency_check

    def counted(beta, variety):
        checked.append(variety)
        return check(beta, variety)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("extremal_moments") \
                and getattr(module, "consistency_check", None) is check:
            monkeypatch.setattr(module, "consistency_check", counted)
    return checked


@pytest.mark.parametrize("fixture, mode", [
    ("example15", None), ("thm62_a8_8", None), ("thm62_a8_8", "float")])
def test_solver_reads_the_pipeline_consistency(fixture, mode,
                                               consistency_checks):
    # Exact data decides by consistency, and float thm62_a8_8 looks for a
    # witness after its interpolation fails: either way the solver reads
    # the check the pipeline holds.
    pipe = em.Pipeline(em.load_multisequence(moments(fixture), mode))
    held = pipe.consistency
    report = em.solve_extremal(pipe)
    assert consistency_checks == [pipe.variety]
    assert report.status == ("Measure" if held.ok else "NoMeasure")


def test_supplied_points_check_their_own_variety(consistency_checks, calls):
    grid = [(0, 0), (0, 1), (1, 0), (1, 1)]
    pipe = em.Pipeline(em.beta_from_atoms(grid, [1, 2, 3, 4], degree=4), grid)
    assert pipe.variety == VarietyReport.of_points(grid)
    assert pipe.variety.exact_mask == (True,) * 4
    report = em.solve_extremal(pipe)
    assert report.status == "Measure"
    assert report.variety is pipe.variety
    assert consistency_checks == [pipe.variety]
    assert calls["compute_variety"] == 0


def test_supplied_points_of_an_invertible_matrix_are_the_measure():
    # M(2) of three atoms on the line is invertible: no kernel relation to
    # check, and the supplied points are the atoms.
    atoms = [(0,), (1,), (2,)]
    beta = em.beta_from_atoms(atoms, [1, 1, 1], degree=4)
    for report in (em.solve_extremal(beta, atoms),
                   em.solve_extremal(em.Pipeline(beta, atoms))):
        assert (report.status, report.rank, report.v) == ("Measure", 3, 3)
        assert report.measure.atoms == tuple(atoms)
    assert em.solve_extremal(beta).status == "NotExtremal"
