"""CLI dispatch, problem file round-trips, exit codes, report reproducibility."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from normform import cli
from normform.errors import PrecisionError
from normform.problemfile import parse_problem, serialize_problem
from normform.places_heights import FIBER_TOL
from normform.reduction import HEIGHT_TOL

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
ALL_PROBLEMS = sorted(PROBLEMS.glob("*.json"))


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "normform.cli", *args],
                          capture_output=True, text=True, timeout=300)
    report = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, report, proc.stderr


def test_corpus_exists():
    assert len(ALL_PROBLEMS) >= 6


@pytest.mark.parametrize("path", ALL_PROBLEMS, ids=lambda p: p.name)
def test_problem_files_roundtrip(path):
    text = path.read_text()
    problem = parse_problem(text)
    again = serialize_problem(problem)
    # byte-identical modulo whitespace (the corpus is stored canonically)
    assert "".join(text.split()) == "".join(again.split())
    assert json.loads(text) == json.loads(again)


def test_height_command():
    code, report, _ = run_cli("height", str(PROBLEMS / "pell.json"), "1+θ")
    assert code == 0
    assert abs(float(report["result"]["height"]) - 0.4406867935097715) < 1e-9
    code, report, _ = run_cli("height", str(PROBLEMS / "pell.json"), "1")
    assert code == 0 and float(report["result"]["height"]) == 0.0
    code, report, _ = run_cli("height", str(PROBLEMS / "pell.json"), "13+9θ")
    assert code == 0
    assert abs(float(report["result"]["height"]) - 1.6237884318292197) < 1e-9
    vec = [float(v) for v in report["result"]["log_vector"]]
    assert abs(max(vec) - 1.6237884318292197) < 1e-9


def test_height_defaults_to_mu():
    code, report, _ = run_cli("height", str(PROBLEMS / "pell.json"))
    assert code == 0
    assert report["result"]["element"] == ["13", "9"]


def test_height_parse_failure_exits_2():
    code, report, err = run_cli("height", str(PROBLEMS / "pell.json"), "1+!x")
    assert code == 2 and report is None and "ValueError" in err


def test_height_zero_exits_2():
    code, _, _ = run_cli("height", str(PROBLEMS / "pell.json"), "0")
    assert code == 2


def test_reduce_pell():
    code, report, _ = run_cli("reduce", str(PROBLEMS / "pell.json"))
    assert code == 0
    result = report["result"]
    assert result["mu_out"] == ["-1", "2"]
    assert result["m"] == [-3]
    assert result["bound_satisfied"] is True
    assert abs(float(result["height_out"]) - math.log(7) / 2) < 1e-9
    assert report["ranks"] == {"r_l": 1, "r_k": 0, "r_rel": 1}


def test_reduce_rank_zero_gaussian():
    code, report, _ = run_cli("reduce", str(PROBLEMS / "gaussian.json"))
    assert code == 0
    result = report["result"]
    assert result["rank_zero"] is True
    assert result["cm_identity"]["equal"] is True


def test_reduce_not_a_solution_exits_3(tmp_path):
    data = json.loads((PROBLEMS / "pell.json").read_text())
    data["mu"] = ["1", "1"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, report, err = run_cli("reduce", str(bad))
    assert code == 3 and report is None
    assert "not a solution" in err


def test_solve_pell():
    code, report, _ = run_cli("solve", str(PROBLEMS / "pell.json"),
                              "--coeff-bound", "13")
    assert code == 0
    result = report["result"]
    assert result["solution_count"] == 24
    assert result["class_count"] == 2
    for cls in result["classes"]:
        assert abs(float(cls["representative"]["height_out"]) - math.log(7) / 2) < 1e-9
    assert result["norm_form"] == [{"monomial": "x1^2", "coefficient": "1"},
                                   {"monomial": "x2^2", "coefficient": "-2"}]


def test_solve_gaussian():
    code, report, _ = run_cli("solve", str(PROBLEMS / "gaussian.json"),
                              "--coeff-bound", "2")
    assert code == 0
    assert report["result"]["solution_count"] == 4
    assert report["result"]["class_count"] == 1


def test_solve_empty():
    code, report, _ = run_cli("solve", str(PROBLEMS / "pell_beta3.json"),
                              "--coeff-bound", "20")
    assert code == 0
    assert report["result"]["solution_count"] == 0
    assert report["result"]["class_count"] == 0


def test_solve_zeta_mode_one():
    code, report, _ = run_cli("solve", str(PROBLEMS / "pell.json"),
                              "--coeff-bound", "5", "--zeta-mode", "one")
    assert code == 0
    # only x^2 - 2y^2 = +7 remains
    assert report["result"]["solution_count"] == 8


def test_solve_box_overflow_exits_2():
    code, _, err = run_cli("solve", str(PROBLEMS / "pell.json"),
                           "--coeff-bound", "100000")
    assert code == 2 and "search box too large" in err


def test_units_nonmax():
    code, report, _ = run_cli("units", str(PROBLEMS / "pell_nonmax.json"))
    assert code == 0
    eps = report["result"]["epsilons"]
    assert len(eps) == 1 and eps[0]["element"] == ["3", "2"]
    assert abs(float(eps[0]["height"]) - 0.881373587019543) < 1e-9
    assert report["result"]["torsion_k"] == [["1"], ["-1"]]


@pytest.mark.parametrize("name", ["pell.json", "gaussian.json",
                                  "cyclotomic5.json", "quartic2.json",
                                  "pell_nonmax.json"])
def test_verify_corpus_passes(name):
    code, report, _ = run_cli("verify", str(PROBLEMS / name))
    assert code == 0
    assert report["result"]["all_passed"] is True
    assert all(c["passed"] for c in report["result"]["checks"])


@pytest.mark.parametrize("name", ["pell.json", "gaussian.json",
                                  "cyclotomic5.json", "quartic2.json",
                                  "pell_nonmax.json", "pell_beta3.json"])
def test_verify_reports_margins(name):
    code, report, _ = run_cli("verify", str(PROBLEMS / name))
    assert code == 0
    checks = {c["name"]: c["detail"] for c in report["result"]["checks"]}
    fibers = checks["fiber_sums"]
    assert 0 <= float(fibers["max_abs_fiber_sum"]) <= FIBER_TOL
    assert float(fibers["margin"]) >= 0
    identity = checks["rank_zero_identity"]
    if "h_mu" in identity:
        assert float(identity["margin"]) >= 0
    else:
        assert "margin" not in identity
    # the rank-zero towers of the corpus run the identity
    assert ("h_mu" in identity) == (name in ("gaussian.json", "cyclotomic5.json"))


def test_verify_dependent_units_exits_5():
    code, report, _ = run_cli("verify", str(PROBLEMS / "quartic2_dependent_units.json"))
    assert code == 5
    assert report["result"]["all_passed"] is False
    assert report["result"]["first_failure"] == "rank_certificate"
    failing = report["result"]["checks"][0]
    assert "supplied units not independent" in failing["detail"]


# Q(2^(1/8))/Q(sqrt2) with phi = theta^4 and M = Z[theta]: relative rank 3
OCTIC_RANK3 = {
    "base_field": {"minpoly": ["-2", "0", "1"], "integral_basis": [["1"], ["0", "1"]]},
    "extension": {"minpoly_over_Q": ["-2", "0", "0", "0", "0", "0", "0", "0", "1"],
                  "k_generator_in_l": ["0", "0", "0", "0", "1"]},
    "module_basis": [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]],
    "units_l": [["1", "1"], ["1", "0", "0", "0", "1"],
                ["1", "0", "0", "0", "-1", "1", "0", "-1"],
                ["1", "0", "0", "0", "-1", "-1", "0", "1"]],
    "units_k": [["1", "1"]],
}


@pytest.fixture
def octic_problem(tmp_path):
    path = tmp_path / "octic_rank3.json"
    path.write_text(json.dumps(OCTIC_RANK3))
    return path


def test_verify_octic_rank3_in_closed_form(octic_problem, tmp_path):
    out = tmp_path / "report.json"
    started = time.monotonic()
    code = cli.main(["verify", str(octic_problem), "--output", str(out)])
    elapsed = time.monotonic() - started
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["result"]["checks"]}
    for name in ("rounding_inequality", "fiber_deviation_inequality"):
        margins = [float(m) for m in checks[name]["detail"]["margins"]]
        assert len(margins) == 3
        assert all(m >= -HEIGHT_TOL for m in margins)
    assert elapsed < 2.0


def test_verify_unit_margin_violation_exits_5(octic_problem, tmp_path, monkeypatch):
    units = tmp_path / "units.json"
    assert cli.main(["units", str(octic_problem), "--output", str(units)]) == 0
    epsilons = json.loads(units.read_text())["result"]["epsilons"]
    target = [Fraction(v) for v in epsilons[1]["element"]]
    real = cli.weil_height

    def lowered(alpha):
        return real(alpha) - (1e-6 if alpha.coeff_vector() == target else 0.0)

    monkeypatch.setattr(cli, "weil_height", lowered)
    out = tmp_path / "report.json"
    assert cli.main(["verify", str(octic_problem), "--output", str(out)]) == 5
    result = json.loads(out.read_text())["result"]
    assert result["first_failure"] == "rounding_inequality"
    failing = [c for c in result["checks"] if not c["passed"]]
    assert [c["name"] for c in failing] == ["rounding_inequality"]
    assert failing[0]["detail"].startswith("unit 1:")


def test_missing_file_exits_2():
    code, _, err = run_cli("reduce", "/nonexistent/problem.json")
    assert code == 2


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, _ = run_cli("reduce", str(bad))
    assert code == 2


def test_output_flag(tmp_path):
    out = tmp_path / "report.json"
    code, report, _ = run_cli("height", str(PROBLEMS / "pell.json"), "1+θ",
                              "--output", str(out))
    assert code == 0 and report is None
    written = json.loads(out.read_text())
    assert abs(float(written["result"]["height"]) - 0.4406867935097715) < 1e-9


def test_report_echo_reproduces(tmp_path):
    # rerunning on the echoed problem reproduces the same exact/real results
    code, report, _ = run_cli("reduce", str(PROBLEMS / "pell.json"))
    assert code == 0
    echoed = tmp_path / "echo.json"
    echoed.write_text(json.dumps(report["problem"]))
    code, report2, _ = run_cli("reduce", str(echoed))
    assert code == 0
    assert report2["result"]["mu_out"] == report["result"]["mu_out"]
    for key in ("height_in", "height_out", "bound"):
        assert abs(float(report2["result"][key]) - float(report["result"][key])) < 1e-9


def test_precision_flag_accepted():
    code, report, _ = run_cli("height", str(PROBLEMS / "pell.json"), "1+θ",
                              "--precision-bits", "192")
    assert code == 0
    assert report["precision_bits"] == 192


@pytest.mark.parametrize("bits,expected", [("-5", 2), ("0", 2), ("16", 2), ("32", 0)])
def test_precision_flag_is_validated_like_the_file(bits, expected):
    code, report, err = run_cli("height", str(PROBLEMS / "pell.json"), "1+θ",
                                "--precision-bits", bits)
    assert code == expected
    if expected == 2:
        assert "precision_bits must be an integer >= 32" in err
    else:
        assert report["precision_bits"] == 32


def test_relative_units_override(tmp_path):
    # supplying relative_units directly skips the kernel construction
    data = json.loads((PROBLEMS / "pell.json").read_text())
    del data["units_l"]
    del data["units_k"]
    data["relative_units"] = [["3", "2"]]         # (1+sqrt2)^2, still independent
    override = tmp_path / "override.json"
    override.write_text(json.dumps(data))
    code, report, _ = run_cli("units", str(override))
    assert code == 0
    assert report["result"]["epsilons"][0]["element"] == ["3", "2"]
    code, report, _ = run_cli("reduce", str(override))
    assert code == 0 and report["result"]["bound_satisfied"] is True


def test_units_without_unit_data_exits_2(tmp_path):
    data = json.loads((PROBLEMS / "pell.json").read_text())
    del data["units_l"]
    del data["units_k"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(data))
    code, _, err = run_cli("units", str(bare))
    assert code == 2 and "units" in err


def test_dependent_relative_units_exit_2(tmp_path, capsys):
    data = json.loads((PROBLEMS / "pell.json").read_text())
    data["relative_units"] = [["-1"]]             # torsion, so not independent
    bad = tmp_path / "torsion_unit.json"
    bad.write_text(json.dumps(data))
    assert cli.main(["units", str(bad)]) == 2
    assert "supplied relative units not independent" in capsys.readouterr().err


def test_verify_precision_failure_exits_4(monkeypatch, tmp_path, capsys):
    def starved(system):
        raise PrecisionError("forced precision failure")

    monkeypatch.setattr(cli, "verify_rank", starved)
    out = tmp_path / "report.json"
    assert cli.main(["verify", str(PROBLEMS / "quartic2.json"), "--output", str(out)]) == 4
    assert "PrecisionError: forced precision failure" in capsys.readouterr().err
    assert not out.exists()


def test_timing_covers_the_command(monkeypatch, tmp_path):
    real = cli.weil_height

    def slow(alpha):
        time.sleep(0.3)
        return real(alpha)

    monkeypatch.setattr(cli, "weil_height", slow)
    out = tmp_path / "report.json"
    assert cli.main(["height", str(PROBLEMS / "pell.json"), "1+θ", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["timing_seconds"] >= 0.3


VIOLATE_BOUND = """
import sys
import normform.reduction
from normform import cli

if __debug__:
    sys.exit("run under python -O")
real = normform.reduction.weil_height
normform.reduction.weil_height = lambda a: real(a) + (50.0 if a.owner == "l" else 0.0)
sys.exit(cli.main(["reduce", sys.argv[1]]))
"""


def run_optimized(script, problem):
    """Run a script under python -O with this checkout's normform importable."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-O", "-c", script, str(problem)],
                          capture_output=True, text=True, timeout=300, env=env)


def test_bound_violation_exits_5_under_optimize():
    proc = run_optimized(VIOLATE_BOUND, PROBLEMS / "pell.json")
    assert proc.returncode == 5, proc.stderr
    assert "VerificationError: height bound violated" in proc.stderr
    assert proc.stdout == ""


BREAK_RANK_FORMULA = """
import sys
import normform.module_order as module_order
from normform import cli

if __debug__:
    sys.exit("run under python -O")
real = module_order.integer_kernel
module_order.integer_kernel = lambda rows, ncols=None: real(rows, ncols) * 2
sys.exit(cli.main(["units", sys.argv[1]]))
"""


def test_relative_unit_invariant_exits_5_under_optimize():
    proc = run_optimized(BREAK_RANK_FORMULA, PROBLEMS / "pell.json")
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.startswith("VerificationError: relative unit system: rank certificate failed")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_solve_builds_the_norm_form_once(monkeypatch, tmp_path):
    import normform.norm_form as norm_form

    calls = []
    real = norm_form.norm_form_poly

    def counted(module):
        calls.append(module)
        return real(module)

    monkeypatch.setattr(norm_form, "norm_form_poly", counted)
    monkeypatch.setattr(cli, "norm_form_poly", counted, raising=False)
    out = tmp_path / "report.json"
    assert cli.main(["solve", str(PROBLEMS / "pell.json"), "--coeff-bound", "2",
                     "--output", str(out)]) == 0
    assert len(calls) == 1
    assert json.loads(out.read_text())["result"]["norm_form"]


BREAK_COMPILED_COLUMN = """
import sys
from dataclasses import replace
from normform import cli
from normform.norm_form import NormFormPoly

if __debug__:
    sys.exit("run under python -O")
real = NormFormPoly.integer_form


def broken(form):
    # pell: x1^2 gets coefficient 7 = beta, so (1, 0) hits though N(1) = 1
    integer = real(form)
    return replace(integer, columns=((7,) + integer.columns[0][1:],))


NormFormPoly.integer_form = broken
sys.exit(cli.main(["solve", sys.argv[1], "--coeff-bound", "2"]))
"""


def test_compiled_form_mismatch_exits_5_under_optimize():
    proc = run_optimized(BREAK_COMPILED_COLUMN, PROBLEMS / "pell.json")
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.startswith("VerificationError: compiled norm form disagrees")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


UNSTABLE_UNIT = """
import sys
from dataclasses import replace
import normform.problemfile as problemfile
from normform import cli

if __debug__:
    sys.exit("run under python -O")
real = problemfile.relative_units


def broken(module, units_l, units_k):
    # pell_nonmax: 1+sqrt2 is a unit of O_l that does not map Z + 2sqrt2 Z into itself
    return replace(real(module, units_l, units_k), epsilons=tuple(units_l))


problemfile.relative_units = broken
sys.exit(cli.main(["solve", sys.argv[1], "--coeff-bound", "5"]))
"""


def test_non_integral_unit_matrix_exits_5_under_optimize():
    proc = run_optimized(UNSTABLE_UNIT, PROBLEMS / "pell_nonmax.json")
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.startswith("VerificationError: relative unit 1 does not act on the module")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
