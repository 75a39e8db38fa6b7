"""Tests of the benchmark itself: tiny smoke runs of every workload, the
output checks and failure accounting, and that a traced op gives the
same answers as the untraced library call."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import coxfusion  # noqa: E402
import coxfusion.cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def few_setup_samples(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_every_workload(workload):
    out = run.run(workload, seed=3, seconds=0, trace=False, tiny=True)
    result = out["result"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.build(workload, 3, tiny=True))
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert out["report"]["setup_samples"] >= run.SETUP_SAMPLES


def test_tiny_traced_run_reports_every_layer(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.run("scale", seed=3, seconds=0, trace=True, tiny=True)["result"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for name in ("hypergroup.fixed_space_s", "fusion_ring.fp_dims_s", "cli.overhead_s"):
        assert metrics[name]["value"] > 0
    # The CLI checks is_ade once per diagram before any library stage.
    ops = len(workloads.build("scale", 3, tiny=True))
    assert metrics["coxeter.is_ade_calls"]["value"] >= ops
    trace = json.loads((tmp_path / "trace-scale-seed3.json").read_text())
    assert trace["passes"][0]["spans"][0]["name"] == "cli.main"


@pytest.mark.parametrize("tag", ["A5", "D7", "E8"])
def test_traced_op_matches_check_main_theorem(tag):
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        result = child.run_op({"argv": ["verify", tag, "--theorem"]}, coxfusion)
    assert coxfusion.verify.check_main_theorem.__module__ == "coxfusion.verify"
    assert not hasattr(coxfusion.verify.check_main_theorem, "__wrapped__")

    traced = json.loads(result["out"])["main theorem"]
    plain = coxfusion.check_main_theorem(coxfusion.parse_diagram(tag))
    assert traced["passed"] is plain.passed is True
    assert traced["h"] == plain.h == workloads.coxeter_number(tag)
    assert abs(traced["projector_distance"] - plain.projector_distance) <= 1e-12

    names = {span[0] for span in tracer.spans}
    assert names >= {
        "cli.main",
        "verify.check_main_theorem",
        "verify.lemmas",
        "zplus_module.ade_module",
        "zplus_module.restrict",
        "zplus_module.regular_element",
        "fusion_ring.even_subring",
        "fusion_ring.fp_dims",
        "hypergroup.action_from_module",
        "hypergroup.fixed_space",
        "coxeter.coxeter_number",
        "coxeter.coxeter_plane",
        "linalg.subspace_projector",
    }
    layers = spans.layer_totals(tracer.spans, tracer.counts)
    assert all(v >= 0 for v in layers.values())
    assert layers["linalg.perron_calls"] > 0


def test_uncaught_exception_is_one_failed_op(monkeypatch):
    def diverge(argv):
        raise coxfusion.linalg.ConvergenceError("power iteration did not converge")

    monkeypatch.setattr(coxfusion.cli, "main", diverge)
    op = workloads.build("scale", 0, tiny=True)[0]
    result = child.run_op(op, coxfusion)
    assert result["exception"].startswith("ConvergenceError")
    assert workloads.check(op, result) == ("error", None)


def test_checks_classify_outputs():
    op = workloads.build("scale", 0, tiny=True)[0]
    tag = op["expect"]["diagrams"][0]
    report = {
        "diagram": tag,
        "h": workloads.coxeter_number(tag),
        "fixed_dimension": 2,
        "projector_distance": 1e-15,
        "passed": True,
    }

    def outcome(rc, rep):
        out = json.dumps({"main theorem": rep})
        return workloads.check(op, {"rc": rc, "exception": None, "out": out})

    assert outcome(0, report) == ("ok", 1e-15)
    assert outcome(0, {**report, "h": report["h"] + 1})[0] == "wrong"
    assert outcome(0, {**report, "fixed_dimension": 3})[0] == "wrong"
    assert outcome(2, {**report, "passed": False})[0] == "wrong"
    assert outcome(1, report)[0] == "error"
    assert workloads.check(op, {"rc": 0, "exception": None, "out": "not json"})[0] == "wrong"


def test_root_check_needs_the_full_symmetric_root_system():
    op = next(o for o in workloads.build("project", 0, tiny=True) if o["label"] == "project F4")
    out = child.run_op(op, coxfusion)
    assert workloads.check(op, out)[0] == "ok"
    rows = out["out"].splitlines()
    assert workloads.check(op, {**out, "out": "\n".join(rows[:-1])})[0] == "wrong"
    moved = rows[:-1] + ["0.5,0.5"]
    assert workloads.check(op, {**out, "out": "\n".join(moved)})[0] == "wrong"


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)
    assert workloads.build("scale", 5) != workloads.build("scale", 6)
    tags = [op["expect"]["diagrams"][0] for op in workloads.build("scale", 5)]
    assert {"A28", "D47", "D100"} <= set(tags)
    assert [workloads.root_count(t) for t in ("E8", "H4", "F4", "B10", "D30", "I2(7)")] == [
        240,
        120,
        48,
        200,
        1740,
        14,
    ]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "roster", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
