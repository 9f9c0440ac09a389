"""Command-line interface: exit codes, output formats, determinism."""

import argparse
import json
import pathlib
from fractions import Fraction as F

import pytest

import extremal_moments as em
from extremal_moments import cli
from extremal_moments.cli import run

from conftest import (as_float, conic_without_real_points, d3_measure,
                      fixture_path)


EX15 = str(fixture_path("example15.moments.json"))
EX42 = str(fixture_path("ex42_hyperbola.moments.json"))
EX71 = str(fixture_path("ex71.moments.json"))
PROP61 = str(fixture_path("prop61.moments.json"))
THM62 = str(fixture_path("thm62_a8_8.moments.json"))
THM62_FUNCTIONAL = str(fixture_path("thm62.functional.json"))
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


class TestExitCodes:
    def test_solve_measure(self, capsys):
        assert run(["solve", EX15]) == 0
        assert "status: Measure" in capsys.readouterr().out

    def test_solve_no_measure(self, capsys):
        assert run(["solve", THM62]) == 2
        out = capsys.readouterr().out
        assert "status: NoMeasure" in out
        assert "Inconsistent" in out

    def test_solve_not_extremal(self, capsys):
        assert run(["solve", EX42]) == 3
        out = capsys.readouterr().out
        assert "NotExtremal" in out
        assert "infinite" in out

    def test_solve_rank_above_cardinality(self, capsys, tmp_path):
        # d=1 moments 1, 0, 0, 0, 1: M(2) >= 0 of rank 2, but V = {0}.
        path = tmp_path / "beta.json"
        em.dump_multisequence(em.Multisequence(1, 4, {
            (0,): 1, (1,): 0, (2,): 0, (3,): 0, (4,): 1}), path)
        assert run(["solve", str(path)]) == 2
        assert capsys.readouterr().out == (
            "status: NoMeasure\n"
            "rank M(n) = 2, card variety = 1\n"
            "reason: RankAboveCardinality: rank 2 > variety cardinality 1\n")

    def test_missing_file(self, capsys):
        assert run(["solve", "/nonexistent/nope.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_arguments(self, capsys):
        assert run(["frobnicate"]) == 1
        capsys.readouterr()

    def test_extend_flat(self, capsys):
        assert run(["extend", EX71]) == 0
        out = capsys.readouterr().out
        assert "FlatAt at M(5)" in out
        assert "handoff solve: Measure" in out

    def test_extend_not_psd(self, capsys):
        assert run(["extend", THM62]) == 2
        assert "NotPSD" in capsys.readouterr().out

    @pytest.mark.parametrize("fixture", (
        "ex42_hyperbola", "example15", "prop61", "ex44", "prop61_deg8",
        "ex71", "thm62_a8_8"))
    def test_float_extend_exit_is_exact_or_inconclusive(self, fixture,
                                                        capsys):
        # A conflict between float moments is no certificate: float data
        # that ends IllDefined exits 3, never 2 where exact mode finds one.
        path = str(fixture_path(f"{fixture}.moments.json"))
        exact = run(["extend", path])
        assert run(["extend", path, "--mode", "float"]) in (exact, 3)
        capsys.readouterr()

    def test_variety_infinite_still_ok(self, capsys):
        assert run(["variety", EX42]) == 0
        out = capsys.readouterr().out
        assert "Infinite" in out
        assert "common factor: -1 + YX" in out

    def test_variety_unknown_inconclusive(self, capsys):
        # The float hyperbola kernel has the common factor xy - 1, so its
        # ideal has no normal set and the variety is Unknown.
        assert run(["variety", EX42, "--mode", "float"]) == 3
        assert "variety: Unknown" in capsys.readouterr().out

    def test_float_d3_needs_no_points(self, capsys, tmp_path):
        atoms, densities = d3_measure()
        moments = tmp_path / "d3.json"
        em.dump_multisequence(as_float(em.beta_from_atoms(
            atoms, densities, d=3, degree=4)), moments)
        assert run(["solve", str(moments)]) == 0
        assert "status: Measure" in capsys.readouterr().out
        assert run(["variety", str(moments)]) == 0
        assert "variety: Finite, card 6" in capsys.readouterr().out

    def test_float_data_near_the_largest_float(self, capsys, tmp_path):
        # One atom of mass 1e308 at x = 1: M(1) is PSD, although a + a.T
        # overflows on it.
        moments = tmp_path / "huge.json"
        em.dump_multisequence(em.Multisequence(
            1, 2, {(k,): 1e308 for k in range(3)}), moments)
        assert run(["solve", str(moments)]) == 0
        assert "status: Measure" in capsys.readouterr().out
        assert run(["extend", str(moments)]) == 0
        assert "search: FlatAt" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("command", ["analyze", "solve", "variety",
                                         "extend"])
    def test_values_beyond_the_float_range(self, command, mode, capsys,
                                           tmp_path):
        # One atom at 10^100: its data is in range, but extend's new moment
        # 10^400 is not.  Data of 10^400 itself is rejected as input.
        atom = tmp_path / "atom.json"
        em.dump_multisequence(em.Multisequence(
            1, 2, {(k,): F(10**(100 * k)) for k in range(3)}), atom)
        code = run([command, str(atom), "--mode", mode])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if mode == "exact":
            assert code == 0
            if command == "extend":
                assert "search: FlatAt" in captured.out
        else:
            assert code in (0, 3)
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"d": 1, "degree": 4, "moments": [
            {"idx": [k], "value": str(10**400)} for k in range(5)]}))
        assert run([command, str(huge), "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scalar beyond the float range")
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", [[], ["--mode", "float"]],
                             ids=["default", "float"])
    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_float_literal(self, text, mode, capsys, tmp_path):
        # A float literal that is not finite is a scalar beyond the float
        # range, as an exact value past it is.
        path = tmp_path / "beta.json"
        path.write_text(VALID_D1.replace('"0"', f'"{text}"'))
        assert run(["solve", str(path), *mode]) == 1
        err = capsys.readouterr().err
        assert err == f"error: scalar beyond the float range: {text!r}\n"

    def test_many_variables_at_degree_zero(self, capsys, tmp_path):
        # No routine recurses once per variable, so d = 1500 is data like
        # any other: M(0) = (1) is invertible, so V is all of R^1500.
        moments = tmp_path / "wide.json"
        moments.write_text(json.dumps({"d": 1500, "degree": 0, "moments": [
            {"idx": [0] * 1500, "value": "1"}]}))
        assert run(["solve", str(moments)]) == 3
        assert "status: NotExtremal" in capsys.readouterr().out


class TestJsonNumbers:
    """A JSON number is read as its decimal text, under the same --mode."""

    @pytest.mark.parametrize("mode, value, read", [
        ("float", 0, 0.0),
        ("exact", 0.5, F(1, 2)),
        (None, 0, F(0)),
        (None, 0.5, 0.5),
    ])
    def test_mode_applies_to_numbers(self, mode, value, read, capsys,
                                     tmp_path):
        moments = tmp_path / "numbers.json"
        moments.write_text(json.dumps({"d": 1, "degree": 2, "moments": [
            {"idx": [0], "value": 1}, {"idx": [1], "value": value},
            {"idx": [2], "value": 1}]}))
        beta = em.load_multisequence(moments, mode)
        assert type(beta[(1,)]) is type(read) and beta[(1,)] == read
        argv = ["analyze", str(moments)] + (["--mode", mode] if mode else [])
        assert run(argv) == 0
        shown = "exact" if isinstance(read, F) else "float"
        assert f"mode={shown}" in capsys.readouterr().out


class TestAnalyze:
    def test_text_battery(self, capsys):
        assert run(["analyze", EX15]) == 0
        out = capsys.readouterr().out
        assert "rank 4" in out
        assert "psd PSD" in out
        assert "relation: YX = -(1/2)Y" in out
        assert "relation: Y^2 = 2 - 4X - X^2" in out
        assert "recursively generated: RecursivelyGenerated" in out
        assert "variety: Finite, card 4" in out
        assert "consistency: Consistent" in out

    def test_structured_battery(self, capsys):
        assert run(["analyze", EX15, "--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "analyze"
        assert payload["rank"] == 4
        assert payload["psd"] == "PSD"
        assert payload["consistency"] == "Consistent"
        assert payload["injective"] is True
        assert len(payload["variety"]["points"]) == 4
        assert sorted(payload["relations"]) == [
            "YX = -(1/2)Y", "Y^2 = 2 - 4X - X^2"]


class TestOneVariety:
    """Every subcommand reads the variety refined to the same width."""

    def test_analyze_and_solve_print_the_same_point(self, capsys):
        # -2 - sqrt(6), the first atom of example15.
        assert run(["analyze", EX15]) == 0
        assert "  point: (-4.449489742783178, 0)" in capsys.readouterr().out
        assert run(["solve", EX15]) == 0
        assert "  (-4.449489742783178, 0.0) density" \
            in capsys.readouterr().out

    def test_ex71_analyze_is_consistent(self, capsys):
        assert run(["analyze", EX71]) == 0
        assert "consistency: Consistent" in capsys.readouterr().out

    def test_zero_data_solves_to_the_empty_measure(self, capsys, tmp_path):
        moments = tmp_path / "zero.json"
        moments.write_text(json.dumps({
            "d": 1, "degree": 2,
            "moments": [{"idx": [i], "value": "0"} for i in range(3)]}))
        assert run(["solve", str(moments)]) == 0
        out = capsys.readouterr().out
        assert "status: Measure" in out
        assert "atoms (0):" in out


TRIVIAL_KERNEL_TEXT = {
    "analyze": (0, "data: d=2, degree=2, mode=exact\n"
                   "M(1): size 3, rank 3, psd PSD\n"
                   "recursively generated: RecursivelyGenerated\n"
                   "flat over M(0): False (rank 1 -> 3)\n"),
    "solve": (3, "status: NotExtremal\n"
                 "rank M(n) = 3, card variety = infinite\n"
                 "reason: M(n) is invertible, so the variety is all of "
                 "R^d\n"),
    "variety": (0, "rank M(1) = 3\n"
                   "kernel is trivial: variety is all of R^d\n"),
}
TRIVIAL_KERNEL_STRUCTURED = {
    "analyze": {"command": "analyze", "d": 2, "degree": 2, "exact": True,
                "flat": False, "psd": "PSD", "rank": 3,
                "recursiveness": "RecursivelyGenerated", "relations": []},
    "solve": {"command": "solve", "rank": 3,
              "reason": "M(n) is invertible, so the variety is all of R^d",
              "relations": [], "status": "NotExtremal", "v": "infinite"},
    "variety": {"command": "variety", "rank": 3, "relations": [],
                "variety": {"multiple_roots": False, "points": [],
                            "reason": "trivial kernel",
                            "status": "Infinite", "witness": None}},
}


class TestTrivialKernel:
    """Atoms (0,0), (1,0), (0,1) at degree 2: M(1) is invertible."""

    @pytest.fixture
    def moments(self, tmp_path):
        path = tmp_path / "trivial.json"
        em.dump_multisequence(em.beta_from_atoms(
            [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))], [F(1)] * 3,
            degree=2), path)
        return str(path)

    @pytest.mark.parametrize("command", ("analyze", "solve", "variety"))
    def test_text(self, command, moments, capsys):
        code, text = TRIVIAL_KERNEL_TEXT[command]
        assert run([command, moments]) == code
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("command", ("analyze", "solve", "variety"))
    def test_structured(self, command, moments, capsys):
        code = TRIVIAL_KERNEL_TEXT[command][0]
        assert run([command, moments, "--format", "structured"]) == code
        expected = TRIVIAL_KERNEL_STRUCTURED[command]
        assert capsys.readouterr().out == json.dumps(
            expected, indent=2, sort_keys=True) + "\n"


class TestCommonFactor:
    def test_no_real_zero_is_not_infinite(self, capsys, tmp_path):
        # 1 + X^2 + Y^2 divides the kernel but has no real zero.
        path = tmp_path / "conic.json"
        em.dump_multisequence(conic_without_real_points(), path)
        assert run(["analyze", str(path)]) == 0
        assert "variety: Unknown, card unknown" in capsys.readouterr().out
        assert run(["variety", str(path)]) == 3
        out = capsys.readouterr().out
        assert "variety: Unknown, card unknown" in out
        assert "common factor:" not in out
        assert run(["solve", str(path)]) == 2
        assert "reason: NotPSD" in capsys.readouterr().out


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_repeated_runs_identical(self, capsys, fmt):
        assert run(["solve", PROP61, "--format", fmt]) == 0
        first = capsys.readouterr().out
        assert run(["solve", PROP61, "--format", fmt]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first  # non-empty


class TestArtifacts:
    def test_solve_writes_measure(self, capsys, tmp_path, ex15):
        out_file = tmp_path / "measure.json"
        assert run(["solve", EX15, "--out", str(out_file)]) == 0
        capsys.readouterr()
        measure = em.load_measure(out_file)
        assert measure.size == 4
        assert em.verify_measure(ex15, measure).ok

    def test_variety_writes_points(self, capsys, tmp_path):
        out_file = tmp_path / "points.json"
        assert run(["variety", EX15, "--out", str(out_file)]) == 0
        capsys.readouterr()
        points = em.load_points(out_file)
        assert len(points) == 4

    @pytest.mark.parametrize("mode", ("exact", "float"))
    @pytest.mark.parametrize("fixture", ("example15", "prop61", "ex44",
                                         "prop61_deg8", "ex71", "thm62_a8_8"))
    def test_variety_points_solve_back(self, fixture, mode, capsys,
                                       tmp_path):
        # Refined points are adopted as approximations: solving with them
        # answers as the plain solve does, or Unknown, and never exits 1.
        moments = str(fixture_path(f"{fixture}.moments.json"))
        points = str(tmp_path / "points.json")
        assert run(["variety", moments, "--mode", mode, "--out", points]) == 0
        capsys.readouterr()
        statuses = []
        for extra in ([], ["--points", points]):
            assert run(["solve", moments, "--mode", mode,
                        "--format", "structured", *extra]) != 1
            statuses.append(json.loads(capsys.readouterr().out)["status"])
        plain, supplied = statuses
        assert supplied in (plain, "Unknown")
        if fixture == "example15":
            assert supplied == "Measure"

    def test_supplied_points_give_no_witness(self, capsys, tmp_path):
        # thm62's refined points are adopted as floats; a witness from them
        # would be a float certificate in exact mode, and the points need
        # not be all of the variety, so the answer is Unknown.
        moments = str(fixture_path("thm62_a8_8.moments.json"))
        points = str(tmp_path / "points.json")
        assert run(["variety", moments, "--out", points]) == 0
        capsys.readouterr()
        assert run(["solve", moments, "--points", points, "--format",
                    "structured"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "Unknown"
        assert payload.get("witness") is None
        assert "part of the variety" in payload["reason"]

    @pytest.mark.parametrize("mode", [[], ["--mode", "float"],
                                      ["--mode", "exact"]],
                             ids=("default", "float", "exact"))
    def test_supplied_point_past_the_float_range_exits_1(self, mode, capsys,
                                                         tmp_path):
        # The residual's reference sum |c| * 1e308**|a| overflows, so the
        # point cannot be checked against the kernel and is refused.
        points = tmp_path / "far.json"
        points.write_text(json.dumps({"d": 2, "points": [["1e308",
                                                          "1e308"]]}))
        assert run(["solve", EX15, "--points", str(points), *mode]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: supplied point (1e+308, 1e+308) does "
                              "not satisfy kernel relation")
        assert "Traceback" not in err

    def test_repeated_supplied_point_exits_1(self, capsys, tmp_path):
        # Atoms (0, 0) and (1, 2), degree 2: the point (0, 0) given twice
        # would count twice in card V and turn a Measure into NotExtremal.
        beta = tmp_path / "beta.json"
        em.dump_multisequence(em.beta_from_atoms(
            [(F(0), F(0)), (F(1), F(2))], [F(1, 3), F(2, 3)], degree=2), beta)
        points = tmp_path / "points.json"
        for given, code in (([["0", "0"], ["1", "2"]], 0),
                            ([["0", "0"], ["0", "0"], ["1", "2"]], 1)):
            points.write_text(json.dumps({"d": 2, "points": given}))
            assert run(["solve", str(beta), "--points", str(points)]) == code
        out, err = capsys.readouterr()
        assert out.startswith("status: Measure\n")
        assert err == "error: supplied point (0, 0) is given twice\n"

    def test_supplied_point_prints_exactly(self, capsys, tmp_path):
        points = tmp_path / "off.json"
        points.write_text(json.dumps({"d": 2, "points": [["-1/2", "0"]]}))
        assert run(["solve", EX15, "--points", str(points)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: supplied point (-1/2, 0) does not satisfy kernel "
            "relation")

    def test_extend_writes_measure(self, capsys, tmp_path, ex71):
        out_file = tmp_path / "measure.json"
        assert run(["extend", EX71, "--out", str(out_file)]) == 0
        capsys.readouterr()
        measure = em.load_measure(out_file)
        assert measure.size == 9


class TestSynth:
    def test_circle_family_to_solve(self, capsys, tmp_path):
        moments = tmp_path / "circle.json"
        assert run(["synth", "--example14", "2", "1/2",
                    "--out", str(moments)]) == 0
        capsys.readouterr()
        assert run(["solve", str(moments), "--mode", "exact"]) == 0
        assert "status: Measure" in capsys.readouterr().out

    def test_functional_to_solve(self, capsys, tmp_path):
        moments = tmp_path / "derived.json"
        assert run(["synth", "--functional", THM62_FUNCTIONAL,
                    "--degree", "6", "--out", str(moments)]) == 0
        capsys.readouterr()
        assert run(["solve", str(moments)]) == 2
        capsys.readouterr()

    def test_measure_to_moments(self, capsys, tmp_path, ex15):
        measure_file = tmp_path / "measure.json"
        report = em.solve_extremal(ex15)
        em.dump_measure(report.measure, measure_file)
        assert run(["synth", "--measure", str(measure_file),
                    "--degree", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["d"] == 2
        assert payload["degree"] == 4
        values = {tuple(entry["idx"]): float(entry["value"])
                  for entry in payload["moments"]}
        assert values[(0, 0)] == pytest.approx(1.0, abs=1e-9)

    def test_printed_moments_read_back_exactly(self, capsys, tmp_path):
        a = F(1, 10**13)
        assert run(["synth", "--example14", "1", str(a)]) == 0
        printed = tmp_path / "printed.json"
        printed.write_text(capsys.readouterr().out)
        beta = em.load_multisequence(printed)
        assert beta.is_exact
        assert beta == em.complex_to_real(em.example14_gamma(1, a))

    def test_measure_of_many_coordinates(self, capsys, tmp_path):
        measure = tmp_path / "wide.json"
        measure.write_text(json.dumps({"d": 5000, "atoms": [
            {"point": ["1"] * 5000, "density": "2"}]}))
        assert run(["synth", "--measure", str(measure), "--degree", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["moments"] == [{"idx": [0] * 5000, "value": "2"}]

    def test_source_flags_are_exclusive(self, capsys):
        assert run(["synth", "--example14", "2", "1/2",
                    "--functional", THM62_FUNCTIONAL]) == 1
        capsys.readouterr()
        assert run(["synth"]) == 1
        capsys.readouterr()

    def test_degree_required_for_functional(self, capsys):
        assert run(["synth", "--functional", THM62_FUNCTIONAL]) == 1
        assert "degree" in capsys.readouterr().err

    @pytest.mark.parametrize("point, density, error", [
        # 1e200**2 overflows as a power; 1e308 * 10.0 is inf as a product;
        # the exact 10**400 is past the largest float.
        ("1e200", "1", "error: moment (2,) overflows the float range"),
        ("10.0", "1e308", "error: moment (1,) is not finite or lies "
                          "beyond the float range"),
        (str(10**200), "1", "error: moment (2,) is not finite or lies "
                            "beyond the float range"),
    ], ids=("float-power", "float-product", "exact"))
    @pytest.mark.parametrize("out", [True, False], ids=("out", "stdout"))
    def test_moments_beyond_the_float_range_exit_1(self, point, density,
                                                   error, out, capsys,
                                                   tmp_path):
        # The moments loader rejects such a value, so synth writes none.
        measure = tmp_path / "far.json"
        measure.write_text(json.dumps({"d": 1, "atoms": [
            {"point": [point], "density": density}]}))
        target = tmp_path / "moments.json"
        argv = ["synth", "--measure", str(measure), "--degree", "4"]
        assert run(argv + (["--out", str(target)] if out else [])) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(error)
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not target.exists()


# Malformed inputs: (argv template, files).  "{name}" in the argv is replaced
# by the path of the file written from files[name].
VALID_D1 = '{"d": 1, "degree": 2, "moments": [{"idx": [0], "value": "1"}, ' \
    '{"idx": [1], "value": "0"}, {"idx": [2], "value": "1"}]}'
MALFORMED = {
    "moments-not-object": (["analyze", "{m}"], {"m": "5"}),
    "moments-top-level-list": (["solve", "{m}"], {"m": "[]"}),
    "d-string": (["analyze", "{m}"],
                 {"m": '{"d": "x", "degree": 2, "moments": []}'}),
    "d-zero": (["analyze", "{m}"],
               {"m": '{"d": 0, "degree": 2, "moments": []}'}),
    "degree-string": (["analyze", "{m}"],
                      {"m": '{"d": 1, "degree": "x", "moments": []}'}),
    "moments-of-ints": (["analyze", "{m}"],
                        {"m": '{"d": 1, "degree": 2, "moments": [1, 2]}'}),
    "moments-object": (["analyze", "{m}"],
                       {"m": '{"d": 1, "degree": 2, "moments": {}}'}),
    "idx-int": (["analyze", "{m}"],
                {"m": '{"d": 1, "degree": 2, '
                      '"moments": [{"idx": 5, "value": "1"}]}'}),
    "idx-string-entry": (["analyze", "{m}"],
                         {"m": '{"d": 1, "degree": 2, '
                               '"moments": [{"idx": ["a"], "value": "1"}]}'}),
    "moment-nan": (["solve", "{m}"], {"m": VALID_D1.replace('"0"', "NaN")}),
    "moment-boolean": (["solve", "{m}"],
                       {"m": VALID_D1.replace('"0"', "true")}),
    "moment-infinity-string-exact": (["solve", "{m}", "--mode", "exact"], {
        "m": VALID_D1.replace('"0"', '"Infinity"')}),
    "moment-infinity-exact": (["solve", "{m}", "--mode", "exact"],
                              {"m": VALID_D1.replace('"0"', "Infinity")}),
    "d-beyond-the-moments": (["solve", "{m}"],
                             {"m": '{"d": 1000000000, "degree": 0, '
                                   '"moments": []}'}),
    "moment-infinity": (["solve", "{m}"],
                        {"m": VALID_D1.replace('"0"', "Infinity")}),
    "moment-neg-infinity": (["solve", "{m}"],
                            {"m": VALID_D1.replace('"0"', "-Infinity")}),
    "points-int": (["solve", "{m}", "--points", "{p}"],
                   {"m": VALID_D1, "p": '{"d": 1, "points": 5}'}),
    "points-wrong-dimension": (["solve", "{m}", "--points", "{p}"],
                               {"m": VALID_D1,
                                "p": '{"d": 2, "points": [["0", "1"]]}'}),
    "measure-point-int": (["synth", "--measure", "{a}", "--degree", "2"],
                          {"a": '{"d": 1, "atoms": '
                                '[{"point": 5, "density": "1"}]}'}),
    "measure-no-atoms": (["synth", "--measure", "{a}", "--degree", "2"],
                         {"a": '{"d": 1, "atoms": []}'}),
    "functional-weights-short": (["synth", "--functional", "{f}",
                                  "--degree", "2"],
                                 {"f": '{"d": 1, "atoms": [["0"], ["1"]], '
                                       '"weights": ["1"]}'}),
    "derivation-point-arity": (["synth", "--functional", "{f}",
                                "--degree", "2"],
                               {"f": '{"d": 2, "atoms": [["0", "0"]], '
                                     '"weights": ["1"], "derivation": '
                                     '{"a0": "1", "point": ["0"], '
                                     '"direction": ["1", "0"]}}'}),
    "synth-negative-degree": (["synth", "--functional", "{f}",
                               "--degree", "-2"],
                              {"f": '{"d": 1, "atoms": [["0"]], '
                                    '"weights": ["1"]}'}),
    "example14-zero": (["synth", "--example14", "0", "1/2"], {}),
    "example14-beyond-float-range": (["synth", "--example14", "2",
                                      str(10**400), "--mode", "float"], {}),
    "point-beyond-float-range": (["solve", "{m}", "--points", "{p}"],
                                 {"m": VALID_D1, "p": '{"d": 1, "points": '
                                  f'[["{10**400}"]]}}'}),
    "json-number-beyond-float-range": (["solve", "{m}"], {
        "m": VALID_D1.replace('"0"', str(10**400))}),
    "example14-not-integer": (["synth", "--example14", "x", "1/2"], {}),
    "extend-steps-zero": (["extend", "{m}", "--steps", "0"], {"m": VALID_D1}),
    "extend-steps-negative": (["extend", "{m}", "--steps", "-1"],
                              {"m": VALID_D1}),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_1_with_error(self, case, capsys, tmp_path):
        argv, files = MALFORMED[case]
        paths = {}
        for name, content in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(content)
        argv = [a.format(**paths) for a in argv]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


# Every option of every subcommand, 19 in all, so that a knob nothing reads
# (a tolerance flag, an --out that writes nothing) cannot come back unseen.
OPTIONS = {
    "analyze": ["--format", "--mode"],
    "solve": ["--format", "--mode", "--out", "--points"],
    "variety": ["--format", "--mode", "--out"],
    "extend": ["--format", "--mode", "--out", "--steps"],
    "synth": ["--degree", "--example14", "--functional", "--measure",
              "--mode", "--out"],
}


class TestOptions:
    def test_option_lists(self):
        (sub,) = [action for action in cli._build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
        options = {
            name: sorted(flag for action in parser._actions
                         for flag in action.option_strings
                         if flag not in ("-h", "--help"))
            for name, parser in sub.choices.items()}
        assert options == OPTIONS
        assert sum(len(flags) for flags in options.values()) == 19

    @pytest.mark.parametrize("argv", [
        ["solve", THM62, "--tol-residual", "1e-2"],
        ["analyze", EX15, "--tol-rank", "1e-10"],
        ["analyze", EX15, "--out", "{out}"],
    ])
    def test_removed_flags_exit_1(self, argv, capsys, tmp_path):
        out = tmp_path / "out.json"
        assert run([arg.format(out=out) for arg in argv]) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


class TestSharedParser:
    """One parser serves every call in a process; each call still starts
    from the defaults."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_earlier_options_do_not_carry_over(self, capsys):
        assert run(["solve", EX15, "--format", "structured",
                    "--mode", "float"]) == 0
        capsys.readouterr()
        assert run(["solve", EX15]) == 0
        assert capsys.readouterr().out.encode("utf-8") == (
            GOLDEN / "example15.solve.exact-text.stdout").read_bytes()

    def test_help_twice(self, capsys):
        outputs = []
        for _ in range(2):
            assert run(["--help"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("usage: extremal-moments")

    def test_bad_subcommand_after_a_good_call(self, capsys):
        assert run(["solve", EX15]) == 0
        capsys.readouterr()
        assert run(["frobnicate"]) == 1
        assert capsys.readouterr().err.startswith("usage: extremal-moments")


# A command per subcommand that writes an --out file.
WRITERS = {
    "solve": ["solve", EX15],
    "variety": ["variety", EX15],
    "extend": ["extend", EX71],
    "synth": ["synth", "--example14", "2", "1/2"],
}


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_unwritable_out_exits_1(command, capsys, tmp_path):
    out = tmp_path / "missing" / "x.json"
    assert run([*WRITERS[command], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err
