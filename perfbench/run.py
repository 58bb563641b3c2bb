"""Benchmark of the skorokhod-sde command line, run from the repository root:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 20 --trace 0

The CLI runs in this process through ``cli.main``, one operation at a time.
Each run does one untimed round on the golden seed, then times rounds on
``--seed`` for up to ``--seconds`` seconds, with set-up measured in fresh
interpreters between them.  Times are scaled to a reference host speed by a
calibration loop run between rounds.  Every command is checked by gate.py.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, with the spans
written to ``.perfbench/traces/``.  The last line of output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md for
what every metric means.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import gate
import tracer as tracing
from workloads import GOLDEN_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# calibrate() takes this long on the reference host: its median on the
# 2-vCPU Intel Xeon that recorded the baseline in README.md.
CALIBRATION_REF_S = 0.19
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "path_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sources.time_s": "s",
    "sources.calls": "count",
    "sources.values_drawn": "count",
    "sources.jump_events": "count",
    "engine.inputs_self_s": "s",
    "engine.integrate_s": "s",
    "engine.path_steps": "count",
    "engine.ns_per_path_step": "ns",
    "engine.exact_s": "s",
    "engine.ensemble_self_s": "s",
    "models.coeff_s": "s",
    "models.coeff_calls": "count",
    "skorokhod.reflect_box_s": "s",
    "skorokhod.reflect_box_calls": "count",
    "skorokhod.reflect_rows": "count",
    "skorokhod.reflect_active_frac.lower_E": "ratio",
    "skorokhod.reflect_active_frac.lower_I": "ratio",
    "skorokhod.reflect_active_frac.upper_E": "ratio",
    "skorokhod.reflect_active_frac.upper_I": "ratio",
    "analysis.holder_s": "s",
    "analysis.sobolev_s": "s",
    "analysis.sobolev_bytes_computed": "B",
    "analysis.experiment_self_s": "s",
    "cli.summarize_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "config.parse_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}


def pin_blas_threads() -> int:
    """Cap the BLAS/OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    want = nproc
    for var in BLAS_THREAD_VARS:
        try:
            want = min(want, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(want)
    return want


def load_cli():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    from skorokhod_sde import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"skorokhod_sde imported from {cli.__file__}, not {SRC}")
    return cli


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    try:
        from skorokhod_sde import _kernels
        numba = bool(_kernels.NUMBA_ENABLED)
    except ImportError:
        numba = None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_enabled": numba,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas.get("name", "unknown"),
        "blas_threads": blas_threads,
    }


def setup_probe(workload: str) -> float:
    """Set-up time of one fresh interpreter (see setup_probe.py)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), workload],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def repeat_for(seconds: float, step) -> None:
    """Call ``step`` at least once, and again while the next call, taking
    as long as the last, still ends within ``seconds``."""
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        if time.perf_counter() + last > t_end:
            return


def tail(samples: list[float]):
    """Highest nearest-rank percentile with at least 10 samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None
    rank = n - 10
    return {"percentile": 100 * rank // n, "value": sorted(samples)[rank - 1], "samples": n}


class Runner:
    """Runs a workload's rounds in a scratch directory and gates them."""

    def __init__(self, cli, workload, work: Path, golden: dict):
        self.cli, self.workload = cli, workload
        self.work = work
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests: dict[int, dict] = {}
        work.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for cmd in workload.commands:
            if cmd.config:
                path = work / f"{cmd.command}.ini"
                path.write_text(cmd.config)
                self.configs[cmd.command] = str(path)

    def out_dir(self, cmd) -> Path:
        return self.work / f"out_{cmd.command}"

    def round(self, seed: int, tracer=None):
        """One round on ``seed``; returns its (wall s, cpu s).  With a
        tracer, each command runs inside a root span."""
        wall = cpu = 0.0
        ok = True
        digests = {}
        cwd = os.getcwd()
        # A relative --out keeps the config the outputs echo free of this path.
        os.chdir(self.work)
        try:
            for cmd in self.workload.commands:
                out = self.out_dir(cmd)
                shutil.rmtree(out, ignore_errors=True)
                argv = cmd.argv(seed, out.name, self.configs.get(cmd.command))
                span = tracer.begin(tracing.ROOT) if tracer is not None else None
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    rc = self.cli.main(argv)
                except Exception as exc:  # a traceback is a failed operation
                    rc = f"{type(exc).__name__}: {exc}"
                wall += time.perf_counter() - t0
                cpu += time.process_time() - c0
                if span is not None:
                    tracer.finish(span)
                self.attempted += 1
                golden = self.golden.get(cmd.command) if seed == GOLDEN_SEED else None
                problems, found = gate.check_command(cmd, out, rc, seed, golden)
                digests.update(found)
                if problems:
                    self.failed += 1
                    ok = False
                    self.problems += [f"seed {seed}: {p}" for p in problems[:5]]
        finally:
            os.chdir(cwd)
        first = self.first_digests.setdefault(seed, digests)
        if ok and digests != first:
            self.failed += 1
            self.problems.append(f"seed {seed}: outputs differ from the first round on this seed")
        return wall, cpu


def layer_metrics(rounds: list[dict]) -> dict:
    """Per-layer metrics: the median over traced rounds of each value."""
    med = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    out = {k: med[k] for k in PER_LAYER if k in med}
    steps = med["engine.path_steps"]
    out["engine.ns_per_path_step"] = 1e9 * med["engine.integrate_s"] / steps if steps else 0.0
    rows = med["skorokhod.reflect_rows"]
    for face in ("lower", "upper"):
        for k, coord in enumerate("EI"):
            active = med.get(f"skorokhod.reflect_active.{face}_{k}", 0)
            out[f"skorokhod.reflect_active_frac.{face}_{coord}"] = active / rows if rows else 0.0
    out["trace.unattributed_s"] = med["unattributed_s"]
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter loops, small-array and
    large-array numpy work that never touches the package."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    a, b = np.zeros(2), np.ones(2)
    for _ in range(20_000):
        a = np.maximum(a + b * 0.5, 0.0)
    x = np.random.default_rng(0).standard_normal(2_000_000)
    np.cumsum(np.abs(x))
    (x[:, None] * np.ones(4)).sum()
    return time.perf_counter() - t0


def measure_end_to_end(args, workload, runner, first_round_rss_mb):
    """Timed rounds on --seed.  Each round sits between two calibrations,
    and its times are scaled by CALIBRATION_REF_S / (their mean).  The
    set-up probes are spread between the rounds, each scaled by the
    calibration just before it."""
    walls, cpus, scales, setups = [], [], [], []
    cals = [calibrate()]

    def step():
        wall, cpu = runner.round(args.seed)
        cals.append(calibrate())
        walls.append(wall)
        cpus.append(cpu)
        scales.append(CALIBRATION_REF_S / statistics.fmean(cals[-2:]))
        if len(setups) < SETUP_PROBES:
            setups.append(setup_probe(workload.name) * CALIBRATION_REF_S / cals[-1])

    repeat_for(args.seconds, step)
    while len(setups) < SETUP_PROBES:
        cals.append(calibrate())
        setups.append(setup_probe(workload.name) * CALIBRATION_REF_S / cals[-1])
    scaled_walls = [w * k for w, k in zip(walls, scales)]
    wall_s = statistics.median(scaled_walls)
    detail = {
        "rounds": len(walls),
        "wall_samples_scaled": scaled_walls,
        "wall_tail_scaled": tail(scaled_walls),
        "unscaled": {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
                     "wall_samples": walls, "cpu_samples": cpus},
        "calibration_s": cals,
        "setup_samples_scaled": setups,
        "run_peak_rss_mb": peak_rss_mb(),
    }
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "cpu_s": statistics.median(c * k for c, k in zip(cpus, scales)),
        "path_steps_per_s": workload.path_steps / wall_s,
        "peak_rss_mb": first_round_rss_mb,
    }, detail


def measure_layers(args, workload, runner):
    """Untraced and traced rounds in turn; per-layer metrics from the traced
    ones, tracing overhead from the difference."""
    tracer = tracing.Tracer()
    plain, traced, rounds, op_starts = [], [], [], []
    missing = []

    def step():
        plain.append(runner.round(args.seed)[0])
        lo = len(tracer)
        before = Counter(tracer.counters)
        op_starts.append(lo)
        patches = tracing.install(tracer)
        try:
            traced.append(runner.round(args.seed, tracer)[0])
        finally:
            patches.restore()
        missing[:] = patches.missing
        per_round = dict.fromkeys(PER_LAYER, 0)
        per_round.update(tracing.layer_times(tracer, lo, len(tracer)))
        per_round.update({k: tracer.counters[k] - before[k] for k in tracer.counters})
        per_round["trace.spans"] = len(tracer) - lo - len(workload.commands)
        rounds.append(per_round)

    repeat_for(args.seconds, step)
    metrics = layer_metrics(rounds)
    metrics["trace.untraced_wall_s"] = statistics.median(plain)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    spans = ROOT / ".perfbench" / "traces" / f"{workload.name}.csv"
    tracer.write_csv(spans, lambda i: bisect.bisect_right(op_starts, i) - 1)
    detail = {"traced_rounds": len(traced), "untraced_rounds": len(plain),
              "missing_targets": missing, "spans_file": str(spans.relative_to(ROOT))}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "skorokhod_sde" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    cli = load_cli()
    golden = json.loads((HERE / "golden" / "seed42.json").read_text())[workload.name]
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    runner = Runner(cli, workload, work, golden)
    try:
        runner.round(GOLDEN_SEED)  # untimed warm-up, gated against golden/
        # One CLI invocation per process is how the tool is used, and later
        # rounds only add allocator fragmentation that differs run to run.
        first_round_rss_mb = peak_rss_mb()
        if args.trace:
            metrics, detail = measure_layers(args, workload, runner)
        else:
            metrics, detail = measure_end_to_end(args, workload, runner, first_round_rss_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    correct = runner.failed == 0
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{runner.attempted} commands, {runner.failed} failed the gate")
    for problem in runner.problems[:20]:
        print(f"  gate: {problem}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>16.6g} {unit}")
    detail["environment"] = environment(blas_threads)
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
