"""Tests of the benchmark itself, on cut-down workloads so that they run in seconds."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))
REFS = json.loads(run.REFS.read_text(encoding="utf-8"))


def _small(name: str, workload=run.Workload) -> run.Workload:
    """The workload with its cheap parts only: the default spectrum, or the kernel probes and check."""
    wl = workload(name, seed=7, refs=REFS)
    if name == "spectrum":
        wl.spectra = ["default"]
        wl.cli = wl.cli[:1]
        wl.nodes = {"default": wl.nodes["default"][:5]}
    else:
        wl.spectra = []
        wl.sweep = wl.sweep[:3]
        wl.cli = wl.cli[1:]
    return wl


def _counts(metrics: dict) -> dict:
    units = run.metric_units(traced=True)
    return {k: v for k, v in metrics.items() if units[k] not in ("s", "us")}


@pytest.mark.parametrize("name", ["spectrum", "exact"])
def test_traced_work_counts_repeat_and_match_the_untraced_outputs(name):
    wl = _small(name)
    first, second = run.Tally(), run.Tally()
    a, b = run.trace(wl, first), run.trace(wl, second)
    assert first.failed == second.failed == 0, first.problems + second.problems
    assert _counts(a) == _counts(b)
    layers = ("quadrature.points", "kernel.f_factorized.points") if name == "spectrum" else (
        "kernel.l_terms",
        "special_functions.recurrence_steps",
        "matching.calls",
        "oracles.calls",
    )
    assert all(a[k] > 0 for k in layers), a


def test_trace_restores_the_package_functions():
    import bubblespec.kernel
    import bubblespec.spectrum

    before = (bubblespec.spectrum.f_factorized, bubblespec.kernel.bessel_jn_half)
    tracer.traced(tracer.Recorder(), lambda: None)
    assert (bubblespec.spectrum.f_factorized, bubblespec.kernel.bessel_jn_half) == before


def test_every_metric_is_emitted_with_its_unit(monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_IMPORTS", 1)
    monkeypatch.setattr(run, "Workload", lambda name, seed, refs: _small(name))
    for trace, names in ((0, run.metric_units(False)), (1, run.metric_units(True))):
        assert run.main(["--workload", "spectrum", "--seed", "7", "--seconds", "0", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_benchmark_json_metric_names_are_the_ones_measured():
    spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
    layer = {m["name"] for m in spec["per_layer"]}
    assert layer == {"cli.self_s", "trace.overhead_s", *tracer.layer_metrics(tracer.Recorder())}
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s",
        "setup_s",
        "solve_s",
        "peak_rss_mb",
        "ok_ratio",
        "max_rel_err",
    ]


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
