"""CLI dispatch, problem file round-trips, exit codes, report reproducibility."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from normform import cli
from normform.errors import PrecisionError
from normform.problemfile import parse_problem, serialize_problem

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


def test_verify_dependent_units_exits_5():
    code, report, _ = run_cli("verify", str(PROBLEMS / "quartic2_dependent_units.json"))
    assert code == 5
    assert report["result"]["all_passed"] is False
    assert report["result"]["first_failure"] == "rank_certificate"
    failing = report["result"]["checks"][0]
    assert "supplied units not independent" in failing["detail"]


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


def test_bound_violation_exits_5_under_optimize():
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", VIOLATE_BOUND, str(PROBLEMS / "pell.json")],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 5, proc.stderr
    assert "VerificationError: height bound violated" in proc.stderr
    assert proc.stdout == ""
