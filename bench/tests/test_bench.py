"""Tests of the benchmark's own code: generator, checks, tracing, metric list.

Run with ``python -m pytest -q bench/tests`` from the repository root.
"""

import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest

from bench import checks, exact, tracing, workloads
from bench.run import run_op

ROOT = Path(__file__).resolve().parents[2]


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.json"))}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    written = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        warm, pool = workloads.generate(workload, seed)
        workloads.write_problems([warm, *pool], tmp_path / label)
        written[label] = _files(tmp_path / label)
    assert written["a"] == written["b"]
    assert written["a"].keys() == written["c"].keys()
    assert written["a"] != written["c"]


def test_generated_reduce_inputs_are_solutions():
    _, pool = workloads.generate("reduce", 3)
    for op in pool:
        mu = exact.poly(op.problem["mu"])
        beta = exact.poly(op.problem["beta"])
        assert checks._membership(op.tower, mu) is not None
        assert checks._norm_is_torsion_times(op.tower, mu, beta)
    exponents = [op.props["n"] for op in pool]
    assert min(exponents) <= -18 and max(exponents) >= 18


def test_self_times_on_synthetic_spans():
    spans = [
        ("root", 0.0, 10.0, None, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 4.0, 8.0, 0, 0),
        ("b.child", 5.0, 6.0, 2, 0),
        ("other_op", 20.0, 21.0, None, 1),
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.0]


def test_self_times_counts_overlap_once_and_clips_to_parent():
    spans = [
        ("root", 0.0, 10.0, None, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),
        ("late", 9.0, 12.0, 0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def _report(op, tmp_path):
    workloads.write_problems([op], tmp_path)
    import normform.cli

    code, _, out = run_op(normform.cli, op.argv(tmp_path))
    assert code == 0
    return json.loads(out)


def _first(workload, predicate):
    _, pool = workloads.generate(workload, 11)
    return next(op for op in pool if predicate(op))


def test_reduce_check_rejects_corruption(tmp_path):
    op = _first("reduce", lambda o: o.props["tower"] == "pell" and abs(o.props["n"]) > 3)
    report = _report(op, tmp_path)
    checker = checks.Checker()
    assert checker.check(op, report) == []
    res = report["result"]
    corrupt = copy.deepcopy(report)
    corrupt["result"]["mu_out"] = [str(int(res["mu_out"][0]) + 1)] + res["mu_out"][1:]
    assert checker.check(op, corrupt)
    corrupt = copy.deepcopy(report)
    corrupt["result"]["mu_out"] = res["mu_in"]
    assert any("exceeds the bound" in e for e in checker.check(op, corrupt))
    corrupt = copy.deepcopy(report)
    corrupt["result"]["bound"] = str(float(res["bound"]) * 1.01)
    assert checker.check(op, corrupt)


def test_solve_check_rejects_corruption(tmp_path):
    op = _first("solve", lambda o: o.props["tower"] == "gaussian" and o.props["box"] <= 10)
    report = _report(op, tmp_path)
    checker = checks.Checker()
    assert checker.check(op, report) == []
    sols = report["result"]["solutions"]
    corrupt = copy.deepcopy(report)
    coords = corrupt["result"]["solutions"][0]["coords"]
    coords[0] += 1
    corrupt["result"]["solutions"][0]["nu"][0] = [str(int(sols[0]["nu"][0][0]) + 1)]
    assert checker.check(op, corrupt)
    corrupt = copy.deepcopy(report)
    planted = next(i for i, s in enumerate(sols) if tuple(s["coords"]) == op.planted)
    del corrupt["result"]["solutions"][planted]
    assert checker.check(op, corrupt)
    corrupt = copy.deepcopy(report)
    corrupt["result"]["solutions"][0]["zeta"] = ["2"]
    assert checker.check(op, corrupt)


def test_height_check_rejects_corruption(tmp_path):
    op = _first("heights", lambda o: o.props["degree"] == 4 and o.props["bits"] <= 8)
    report = _report(op, tmp_path)
    checker = checks.Checker()
    assert checker.check(op, report) == []
    corrupt = copy.deepcopy(report)
    corrupt["result"]["height"] = repr(float(report["result"]["height"]) + 1e-6)
    assert checker.check(op, corrupt)
    corrupt = copy.deepcopy(report)
    corrupt["result"]["element"][0] = str(int(corrupt["result"]["element"][0]) + 1)
    assert checker.check(op, corrupt)


def test_oracle_height_of_known_values():
    # h(1 + sqrt2) = log(1 + sqrt2) / 2, h(3/2) = log 3, h(i) = 0
    assert checks.oracle_height([1, 1], [-2, 0, 1]) == pytest.approx(0.4406867935097715, abs=1e-14)
    assert checks.oracle_height([Fraction(3, 2)], [0, 1]) == pytest.approx(1.0986122886681098)
    assert checks.oracle_height([0, 1], [1, 0, 1]) == 0.0


def test_tracer_counts_and_restores(tmp_path):
    import normform.cli
    import normform.reduction

    op = _first("reduce", lambda o: o.props["tower"] == "pell")
    workloads.write_problems([op], tmp_path)
    original = normform.reduction.weil_height
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert normform.reduction.weil_height is not original
        assert normform.cli.weil_height is normform.reduction.weil_height
        tracer.op_id = 0
        code, _, _ = run_op(normform.cli, op.argv(tmp_path))
    finally:
        tracer.uninstall()
    assert code == 0
    assert normform.reduction.weil_height is original
    metrics = tracer.layer_metrics(1)
    assert set(metrics) == set(tracing.LAYER_METRICS) - {"trace.overhead_ratio"}
    assert metrics["places_heights.weil_height.calls"] >= 3
    assert metrics["number_field.FieldElement.init.calls"] > 0
    assert metrics["rational_core.Poly.divmod.calls"] > 0
    assert metrics["cli.cmd_reduce.self_ms"] > 0
    assert all(span[4] == 0 for span in tracer.spans)
    roots = [s for s in tracer.spans if s[3] is None]
    assert [s[0] for s in roots] == ["cli.main"]


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.LAYER_METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s", "p50_ms", "p90_ms", "setup_s", "peak_rss_mb"}
    assert spec["command"] == ["python3", "bench/run.py"]


def test_harrell_davis_quantile():
    from bench.run import quantile

    values = list(range(1, 102))
    assert quantile(values, 0.5) == pytest.approx(51.0)
    assert 89.0 < quantile(values, 0.9) < 93.0
    assert quantile([7.0], 0.9) == 7.0
    assert quantile([5.0] * 20, 0.9) == pytest.approx(5.0)


def test_scaled_times_use_nearby_calibrations():
    from bench.run import CALIBRATION_EXPONENT, CALIBRATION_REF_S, CALIBRATION_WINDOW_S, Loop

    far = 10 * CALIBRATION_WINDOW_S
    loop = Loop(results=[(None, 0, 1.0, ""), (None, 0, 1.0, "")],
                op_mid=[0.0, far],
                cal_mid=[0.1, far + 0.1],
                cal_s=[CALIBRATION_REF_S, 2 * CALIBRATION_REF_S])
    assert loop.scaled_times() == [1.0, pytest.approx(0.5 ** CALIBRATION_EXPONENT)]
