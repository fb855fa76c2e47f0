"""Smoke-size checks of the benchmark itself.

Not collected by the default test run (each case starts a server
process and serves uploads over TCP).  Run with::

    python -m pytest -q perfbench/tests/smoke_perfbench.py
"""

import functools
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# sum-bulk and sum-trickle are not in BENCHMARK.json (their timings
# follow the host's speed too closely for its bounds) but still run by
# hand, so they are checked here too.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + [
    "sum-bulk", "sum-trickle"
]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@functools.lru_cache(maxsize=None)
def smoke(workload, seed=1, trace=0):
    """``(report, result)`` of one smoke-size run."""
    done = run("--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr[-3000:]
    *_, report, result = done.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    report, result = smoke(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["decisions"]["aggregate_mismatches"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
    if not trace:
        assert all(got["value"] > 0 for got in result["metrics"].values())
    assert set(report["host"]) >= {
        "nproc", "python", "numpy", "backend", "executor"
    }
    assert report["host"]["executor"] == "inline"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_measures_the_layers_that_run(workload):
    report, result = smoke(workload, trace=1)
    not_measured = set(report["not_measured"])
    sealed = workload == "survey-sealed"
    assert ("crypto.seal" in not_measured) is not sealed
    assert ("crypto.open" in not_measured) is not sealed
    assert ("loadgen.late_ms_p99" in not_measured) is (
        workload != "sum-trickle"
    )
    for name in ("snip.prove_h_us", "field.expand_seed_us",
                 "protocol.server.round1_us", "transport.server.self_us"):
        assert result["metrics"][name]["value"] > 0, name
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_gives_same_counts_and_sizes(workload):
    first_report, first = smoke(workload, seed=1)
    second_report, second = smoke(workload, seed=2)
    for key in ("attempted", "accepted", "rejected", "failed"):
        assert first_report["decisions"][key] == \
            second_report["decisions"][key], key
    size = "upload_bytes_per_sub"
    assert first["metrics"][size] == second["metrics"][size]


def test_tracer_restores_functions_and_reports_missing_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import repro.protocol.server as server
    from spans import Tracer

    original = server.PrioServer.decide_batch
    tracer = Tracer()
    tracer.install([
        ("gone.module", "repro.no_such_module:f"),
        ("gone.method", "repro.protocol.server:PrioServer.no_such_method"),
        ("protocol.server.decide",
         "repro.protocol.server:PrioServer.decide_batch"),
    ])
    assert tracer.missing == {"gone.module", "gone.method"}
    assert server.PrioServer.decide_batch is not original
    tracer.uninstall()
    assert server.PrioServer.decide_batch is original

    class Calls:
        @staticmethod
        def outer():
            Calls.inner()

        @staticmethod
        def inner():
            pass

    tracer.wrap_attribute(Calls, "inner", "inner")
    tracer.wrap_attribute(Calls, "outer", "outer")
    Calls.outer()
    tracer.uninstall()
    assert isinstance(vars(Calls)["outer"], staticmethod)
    inner, = [span for span in tracer.spans if span[0] == "inner"]
    assert tracer.spans[inner[3]][0] == "outer"
    self_s = tracer.self_times()
    total = sum(end - start for _, start, end, p, _ in tracer.spans
                if p < 0)
    assert abs(self_s["outer"] + self_s["inner"] - total) < 1e-9


def test_mislabelled_expected_decision_fails_the_run():
    done = run("--workload", "sum-bulk", "--seed", "1", "--seconds", "1",
               "--mislabel", "7")
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("--workload", "sum-bulk", "--seed", "1", "--seconds", "1",
               cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
