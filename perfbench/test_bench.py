"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import gc
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import qschub.cli  # noqa: E402,F401
import workloads  # noqa: E402
import yardstick  # noqa: E402
from tracing import Tracer  # noqa: E402

QS = sys.modules["qschub"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((HERE / "golden.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_its_checks(workload):
    proc = _run("--workload", workload, "--scale", "tiny", "--seed", "3", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = _run("--workload", "quantize", "--scale", "tiny", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["quantization.theta_calls"]["value"] > 0
    assert metrics["quantization.rows_built"]["value"] > 0
    assert metrics["quantum_ring.structure_constants_calls"]["value"] == 0


def _flip(poly):
    terms = QS.poly.polynomial_to_json(poly)
    terms[0]["c"] = str(-int(terms[0]["c"]))
    return QS.poly.polynomial_from_json(terms)


def _corrupt(spec, out):
    kind = spec[0]
    if kind in ("member", "theta", "theta_P"):
        return _flip(out)
    if kind in ("decompose_E", "pair"):
        key = next(iter(out))
        return {**out, key: _flip(out[key])}
    if kind == "table":
        return out.replace('"coeff": "1"', '"coeff": "-1"', 1)
    rc, text = out  # one count in the suite's report changed
    return rc, re.sub(r"\d", lambda m: str((int(m.group()) + 1) % 10), text, count=1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_counts_as_failed(workload):
    golden = GOLDEN[workload]
    for spec in workloads.plan(workload, workloads.DEFAULT_SEED, "tiny"):
        out = workloads.run_op(spec, QS)
        assert workloads.verdict(spec, out, QS, golden)[1] is None, spec
        bad = _corrupt(spec, out)
        assert workloads.verdict(spec, bad, QS, golden)[1] is not None, spec
        # the second route catches it without the golden digest too
        assert workloads.second_route(spec, bad, QS) is not None, spec


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.plan(workload, 7) == workloads.plan(workload, 7)
    assert workloads.plan("members", 7) != workloads.plan("members", 8)


def test_default_seed_outputs_have_golden_digests():
    for workload in workloads.WORKLOADS:
        for scale in workloads.SCALES:
            for spec in workloads.plan(workload, workloads.DEFAULT_SEED, scale):
                assert workloads.op_key(spec) in GOLDEN[workload], spec


def test_tracer_puts_the_program_back():
    before = (QS.schubert.schubert_polynomial, QS.parabolic.divided_difference,
              QS.poly.Polynomial.__dict__["__mul__"], QS.weyl.ParabolicContext.__dict__["n"])
    tracer = Tracer(QS)
    tracer.install()
    assert QS.parabolic.divided_difference is not before[1]
    assert QS.schubert.schubert_polynomial((3, 1, 2), "quantum") == QS.poly.x(1) ** 2 - QS.poly.q(1)
    tracer.uninstall()
    after = (QS.schubert.schubert_polynomial, QS.parabolic.divided_difference,
             QS.poly.Polynomial.__dict__["__mul__"], QS.weyl.ParabolicContext.__dict__["n"])
    assert after == before
    metrics = tracer.metrics()
    assert metrics["schubert.member_calls"]["value"] == 1
    assert metrics["schubert.member_s"]["value"] == 0  # no operation closed yet
    raw = tracer.groups["schubert.member"][2]
    tracer.end_op(2.0)
    assert tracer.metrics()["schubert.member_s"]["value"] == pytest.approx(2 * raw)


def test_sampler_scales_each_stretch_by_the_sample_that_ends_it():
    sampler = yardstick.Sampler()
    ref = yardstick.REF_S
    # 1 s at half speed, a 0.1 s sample, then 2 s at reference speed
    sampler.samples = [(1.0, 1.1, 0.1, 2 * ref), (9.0, 9.1, 0.1, ref)]
    own, scaled, cpu = sampler.scaled(0.0, 3.1, ref)
    assert (own, scaled, cpu) == pytest.approx((3.0, 2.5, 0.1))


def test_yardstick_leaves_the_collector_as_it_was():
    assert yardstick.pace() > 0 and gc.isenabled()
    gc.disable()
    try:
        yardstick.pace()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "members", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
