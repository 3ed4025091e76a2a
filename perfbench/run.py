"""Run one toricctl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark drives the in-process CLI entry point ``toricctl.cli.main`` of
the checkout it lives in, as a closed loop with one client: each command
starts only after the previous one has returned.  Interpreter start-up is
not counted.  The workload's pass of distinct commands (see ``workloads.py``)
runs again and again until at least ``--seconds`` of command time and
``MIN_PASSES`` passes have been measured.  Every output is checked by an
oracle outside the timed region.

The host this was written on drifts between a fast and a slow state (the
same command takes up to 1.6 times as long in the slow one, for seconds or
for minutes).  So every call is bracketed by two runs of a fixed piece of
pure-Python work, the gauge, and its latency is scaled to a host on which the
gauge takes ``GAUGE_REFERENCE_S``; a command's latency is the median of its
scaled calls.  See NOTES.md for the measurements behind this.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics;
with ``--trace 1`` the commands run under ``tracer.Tracer`` and the last line
reports the per-layer metrics, and the spans are written to
``.perfbench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, build_pass  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 3
GAUGE_STEPS = 1500
GAUGE_REFERENCE_S = 0.0002  # the gauge's time on the build host in its fast state
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency
TAIL_MIN_SAMPLES = 100  # so that the tail is at least p90


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def gauge() -> float:
    """Time a fixed piece of pure-Python work: how fast the host is right now."""
    start = perf_counter()
    acc = 0
    table = {}
    for i in range(GAUGE_STEPS):
        acc = (acc + i * i) % 1_000_003
        table[i & 63] = (i, acc)
    return perf_counter() - start


def scaled(elapsed: float, gauges: tuple[float, float]) -> float:
    """``elapsed`` as it would read on a host where the gauge takes ``GAUGE_REFERENCE_S``."""
    return elapsed * GAUGE_REFERENCE_S / (sum(gauges) / len(gauges))


def import_program():
    """Import ``toricctl.cli`` afresh from this checkout's ``src``."""
    package = SRC / "toricctl"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no toricctl sources at {package}")
    for name in [m for m in sys.modules if m == "toricctl" or m.startswith("toricctl.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("toricctl.cli")
    if Path(cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported toricctl from {cli.__file__}, not from {package}")
    return cli


def setup(workload: str, seed: int, workdir: Path):
    """Import the program, build the inputs and write the fan files.

    Done ``SETUP_REPEATS`` times over, each time anew; the last set is used and the
    median scaled time is reported as ``setup_s``.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = gauge()
        start = perf_counter()
        cli = import_program()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        commands = build_pass(workload, seed, str(workdir))
        elapsed = perf_counter() - start
        times.append(scaled(elapsed, (before, gauge())))
    return cli, commands, statistics.median(times)


class Runner:
    """Runs commands one at a time, times each call and checks its output."""

    def __init__(self, cli, tracer: Tracer | None = None) -> None:
        self.cli = cli
        self.tracer = tracer
        self.samples: list[list[float]] = []  # scaled latencies of command i of the pass
        self.measured = 0.0  # seconds of command time, not scaled
        self.passes = 0
        self.attempted = 0
        self.failures: list[tuple[tuple[str, ...], str]] = []
        self.digests: dict[tuple, bytes] = {}

    def execute(self, command) -> float:
        """Run one command and return its scaled latency."""
        out, err = io.StringIO(), io.StringIO()
        saved = os.environ.get("TORICCTL_SEED")
        if command.env_seed is not None:
            os.environ["TORICCTL_SEED"] = str(command.env_seed)
        if self.tracer is not None:
            self.tracer.command = self.attempted
        before = gauge()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                start = perf_counter()
                try:
                    code = self.cli.main(list(command.argv))
                except Exception as exc:  # a crash fails the command, not the run
                    code = exc
                elapsed = perf_counter() - start
        finally:
            if saved is None:
                os.environ.pop("TORICCTL_SEED", None)
            else:
                os.environ["TORICCTL_SEED"] = saved
        after = gauge()
        self.attempted += 1
        self.measured += elapsed
        self._check(command, code, out.getvalue())
        return scaled(elapsed, (before, after))

    def _check(self, command, code, stdout: str) -> None:
        if isinstance(code, BaseException):
            problem = f"raised {type(code).__name__}: {code}"
        else:
            problem = command.check(code, stdout)
        digest = hashlib.sha256(stdout.encode()).digest()
        if self.digests.setdefault(command.key, digest) != digest and problem is None:
            problem = "output differs from an earlier run of the same command"
        if problem is not None:
            self.failures.append((command.argv, problem))

    def run_passes(self, commands, seconds: float = 0.0, passes: int = MIN_PASSES) -> None:
        """Repeat the pass until ``seconds`` of command time and ``passes`` passes."""
        if not self.samples:
            self.samples = [[] for _ in commands]
        start = self.measured
        while self.measured - start < seconds or self.passes < passes:
            for samples, command in zip(self.samples, commands):
                samples.append(self.execute(command))
            self.passes += 1

    def latencies(self) -> list[float]:
        """Each command's latency: the median of its scaled calls."""
        return [statistics.median(samples) for samples in self.samples]

    def cmd_per_s(self) -> float:
        latencies = self.latencies()
        return len(latencies) / sum(latencies)


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """The tail latency, its percentile and the sample count.

    With at least ``TAIL_MIN_SAMPLES`` samples this is the sample with exactly
    ``TAIL_BEYOND`` samples above it; with fewer there is no tail to speak
    of, and the slowest sample stands in for it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n >= TAIL_MIN_SAMPLES else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(workload: str, cli, commands, seconds: float, setup_s: float):
    runner = Runner(cli)
    runner.run_passes(commands, seconds)
    latencies = runner.latencies()
    tail, percentile, n = tail_latency(latencies)
    print(f"{workload}: {n} commands x {runner.passes} passes, "
          f"{runner.measured:.3f} s of command time, unscaled {n * runner.passes / runner.measured:.4f} cmd/s")
    print(f"latency_tail_ms is p{percentile:.1f} of {n} command latencies")
    metrics = {
        "cmd_per_s": (runner.cmd_per_s(), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return runner, metrics


def traced(workload: str, seed: int, cli, commands, seconds: float):
    """Traced passes, each followed by an untraced one so that both see the
    same spells of the host; their throughputs give the tracing overhead."""
    tracer = Tracer()
    runner = Runner(cli, tracer)
    baseline = Runner(cli)
    baseline.digests = runner.digests  # traced and untraced output must match
    while runner.measured < seconds or runner.passes < MIN_PASSES:
        with tracer:
            runner.run_passes(commands, passes=runner.passes + 1)
        baseline.run_passes(commands, passes=baseline.passes + 1)
    layer = tracer.layer_metrics()
    self_total = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    print(f"{workload}: {len(commands)} commands x {runner.passes} traced passes, "
          f"{layer['trace.spans']} spans")
    print(f"sum of layer self times {self_total:.6f} s, traced wall time {layer['trace.wall_s']:.6f} s")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.write_spans(str(path))
    print(f"spans written to {path.relative_to(ROOT)}")
    metrics = {}
    for name, value in layer.items():
        unit = "s" if name.endswith("_s") or name.endswith(".s") else "count"
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (runner.cmd_per_s() / baseline.cmd_per_s(), "ratio")
    runner.attempted += baseline.attempted
    runner.failures += baseline.failures
    return runner, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = OUT / f"inputs-{os.getpid()}"
    try:
        cli, commands, setup_s = setup(args.workload, args.seed, workdir)
        if args.trace:
            runner, metrics = traced(args.workload, args.seed, cli, commands, args.seconds)
        else:
            runner, metrics = end_to_end(args.workload, cli, commands, args.seconds, setup_s)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(runner.failures)
    print(f"error_rate {failed / runner.attempted:.6f} ({failed} of {runner.attempted} commands)")
    for argv, problem in runner.failures[:10]:
        print(f"FAILED {' '.join(argv)}: {problem}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
