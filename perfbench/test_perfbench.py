"""Tests of the benchmark itself: generators, tracing, oracles, result line.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _program():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import toricctl.cli

    return toricctl.cli


def _snapshot(commands, workdir):
    """Commands and fan files of a pass, with the work directory factored out."""
    argvs = [(c.argv, c.env_seed) for c in commands]
    files = {name: (Path(workdir) / name).read_text() for name in sorted(os.listdir(workdir))}
    return json.loads(json.dumps(argvs).replace(str(workdir), "<dir>")), files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload, tmp_path):
    first, second, other = (tmp_path / name for name in ("a", "b", "c"))
    for d in (first, second, other):
        d.mkdir()
    snap_a = _snapshot(workloads.build_pass(workload, 7, str(first)), first)
    snap_b = _snapshot(workloads.build_pass(workload, 7, str(second)), second)
    snap_c = _snapshot(workloads.build_pass(workload, 8, str(other)), other)
    assert snap_a == snap_b
    assert snap_a != snap_c


def test_pass_shape_does_not_depend_on_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        shapes = set()
        for seed in (1, 2):
            d = tmp_path / f"{workload}-{seed}"
            d.mkdir()
            commands = workloads.build_pass(workload, seed, str(d))
            shapes.add(tuple(c.argv[0] for c in commands))
        assert len(shapes) == 1, workload


def test_stellar_fans_and_mutants(tmp_path):
    import random

    rays, cones = workloads.stellar_fan(random.Random(3), 30)
    assert len(cones) == 30 and len(rays) == 4 + 13
    bad_rays, bad_cones = workloads.overlapping_mutant(random.Random(3), rays, cones)
    assert len(bad_cones) == 31 and len(set(map(tuple, bad_rays))) == len(bad_rays)


def test_large_order_inputs(tmp_path):
    commands = workloads.build_pass("large-order", 5, str(tmp_path))
    wps = [tuple(map(int, c.argv[1].split(","))) for c in commands if c.argv[0] == "wps"]
    terminal, random_ones = wps[0::2], wps[1::2]
    for (one, a, b, r), exponent in zip(terminal, workloads.ORDER_EXPONENTS):
        assert one == 1 and a + b == r and workloads.is_prime(r) and workloads.is_prime(b)
        assert 10**exponent <= r < 1.02 * 10**exponent
        assert workloads.terminal_lemma(r, (1, a, b))
    for weights in random_ones:
        assert workloads.well_formed(weights)
        assert not workloads.terminal_lemma(weights[-1], weights[:3])


def _stdout(cli, command):
    out = io.StringIO()
    saved = os.environ.get("TORICCTL_SEED")
    if command.env_seed is not None:
        os.environ["TORICCTL_SEED"] = str(command.env_seed)
    try:
        with redirect_stdout(out):
            code = cli.main(list(command.argv))
    finally:
        if saved is None:
            os.environ.pop("TORICCTL_SEED", None)
        else:
            os.environ["TORICCTL_SEED"] = saved
    return code, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_stdout_unchanged(workload, tmp_path):
    cli = _program()
    command = workloads.build_pass(workload, 11, str(tmp_path))[0]
    plain = _stdout(cli, command)
    tracer = Tracer()
    with tracer:
        traced = _stdout(cli, command)
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    assert traced == plain
    assert command.check(*plain) is None
    metrics = tracer.layer_metrics()
    self_total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert self_total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["trace.spans"] > 0


def test_layer_metrics_match_benchmark_json():
    names = set(Tracer().layer_metrics()) | {"trace.overhead_ratio"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_tracer_counts_pairs_and_orders(tmp_path):
    cli = _program()
    fan = tmp_path / "p3.json"
    fan.write_text(json.dumps({"name": "P3", "dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                               "cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}))
    tracer = Tracer()
    with tracer:
        _stdout(cli, workloads.Command(("check-fan", str(fan), "--format", "json"), None))
        _stdout(cli, workloads.Command(("wps", "1,1,2,3", "--format", "json"), None))
    metrics = tracer.layer_metrics()
    assert metrics["cones.validate_fan.pairs"] == 12
    assert metrics["cones.load_fan.s"] > 0
    assert metrics["quotients.max_r"] == 3
    assert metrics["quotients.quotient_type.calls"] == 8


def test_corrupted_expectation_is_counted_not_fatal(tmp_path, monkeypatch):
    cli = _program()
    monkeypatch.setattr(workloads, "KASPRZYK_SEVEN", workloads.KASPRZYK_SEVEN - {(1, 1, 2, 3)})
    monkeypatch.setattr(workloads, "CASE1_SOLUTIONS", ({"n": 5, "m": 4, "mu": 1, "nu": 2},))
    scan = workloads.build_pass("wps-scan", 1, str(tmp_path))
    commands = [c for c in scan if c.argv[1] in ("1,1,2,3", "1,1,1,1", "2,3,4,5")]
    commands.append(workloads.Command(("classify-case1", "--bound", "100", "--format", "json"),
                                      workloads.classify_check(100)))
    runner = run.Runner(cli)
    runner.run_passes(commands, passes=1)
    assert runner.attempted == 4
    assert [argv[1] for argv, _ in runner.failures] == ["1,1,2,3", "--bound"]


def test_crash_and_nondeterminism_are_failures():
    outputs = iter(["1", "2"])

    def main(argv):
        if argv[0] == "boom":
            raise RuntimeError("boom")
        print(next(outputs))
        return 0

    runner = run.Runner(types.SimpleNamespace(main=main))
    ok = workloads.Command(("same",), lambda code, out: None)
    runner.run_passes([workloads.Command(("boom",), lambda code, out: None), ok, ok], passes=1)
    assert runner.attempted == 3
    assert [problem.split(":")[0] for _, problem in runner.failures] == [
        "raised RuntimeError",
        "output differs from an earlier run of the same command",
    ]


def test_latency_is_the_median_of_scaled_calls(monkeypatch):
    """A call made while the gauge reads twice its reference counts half."""
    gauges = iter([2 * run.GAUGE_REFERENCE_S] * 6)
    monkeypatch.setattr(run, "gauge", lambda: next(gauges))

    def main(argv):
        print("same")
        return 0

    runner = run.Runner(types.SimpleNamespace(main=main))
    runner.run_passes([workloads.Command(("x",), lambda code, out: None)], passes=3)
    assert sum(runner.samples[0]) == pytest.approx(runner.measured / 2)
    assert runner.latencies() == [statistics.median(runner.samples[0])]


def test_tail_latency():
    assert run.tail_latency([float(i) for i in range(100)]) == (89.0, 90.0, 100)
    assert run.tail_latency([float(i) for i in range(99, -1, -2)]) == (99.0, 100.0, 50)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_result_line_has_every_end_to_end_metric():
    proc = _bench(ROOT, "--workload", "wps-scan", "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "wps-scan", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
