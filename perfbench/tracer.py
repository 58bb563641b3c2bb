"""Span tracing for the per-layer run, done entirely from outside the package.

``install`` replaces the public functions each layer's callers look up
(module attributes such as ``engine.integrate_batch``) with wrappers that
record one span per call: name, start, end and the parent span that was open
when it began.  Counters (path-steps, values drawn, bytes written, ...) are
recorded at the same boundaries.  ``Patches.restore`` puts every original
attribute back, so untraced operations run the unmodified program.

Spans live in flat arrays while the benchmark runs and are written out once,
at the end (``Tracer.write_csv``).
"""
from __future__ import annotations

import dataclasses
import functools
import os
import sys
import time
from array import array
from collections import Counter

# Every span name maps to the per-layer metric its time is booked under.
# Self time (duration minus the part covered by child spans) is booked,
# except for the names in INCLUSIVE, whose whole duration is booked.
SPAN_METRIC = {
    "sources.sample_wiener_increments": "sources.time_s",
    "sources.sample_compound_poisson": "sources.time_s",
    "sources.sample_compound_poisson_arrays": "sources.time_s",
    "sources.sample_ou_path": "sources.time_s",
    "sources.sample_ou_paths": "sources.time_s",
    "engine.simulate_paths": "engine.inputs_self_s",
    "analysis.strong_convergence_experiment": "engine.inputs_self_s",
    "engine.integrate_batch": "engine.integrate_s",
    "engine.simulate_trajectory.exact": "engine.exact_s",
    "engine.simulate_trajectory": "engine.ensemble_self_s",
    "engine.simulate_ensemble": "engine.ensemble_self_s",
    "models.coeff": "models.coeff_s",
    "skorokhod.reflect_box": "skorokhod.reflect_box_s",
    "analysis.holder_seminorm": "analysis.holder_s",
    "analysis.sobolev_seminorm": "analysis.sobolev_s",
    "analysis.stability_experiment": "analysis.experiment_self_s",
    "cli.summarize": "cli.summarize_s",
    "cli.write_trajectory_csv": "cli.write_s",
    "cli.write_long_csv": "cli.write_s",
    "cli._write_json": "cli.write_s",
    "config.parse_config": "config.parse_s",
}
# The exact-timing integrator is booked whole: its coefficient and
# reflection calls also show in models.* and skorokhod.*.
INCLUSIVE = {"engine.simulate_trajectory.exact"}
ROOT = "op"


class Tracer:
    """Spans of one process, kept in flat arrays (index = span id)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._open = [-1]

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def __len__(self) -> int:
        return len(self.start)

    def write_csv(self, path, op_of_span) -> None:
        """All spans, one line each, times in ns from the first span."""
        t0 = self.start[0] if len(self) else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("op,id,parent,name,start_ns,end_ns\n")
            for i in range(len(self)):
                fh.write(
                    f"{op_of_span(i)},{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{round((self.start[i] - t0) * 1e9)},{round((self.end[i] - t0) * 1e9)}\n"
                )


def self_times(starts, ends, parents, lo: int = 0, hi: int | None = None):
    """Self time of spans lo..hi-1: duration minus the union of the
    intervals their direct children cover (clipped to the parent)."""
    hi = len(starts) if hi is None else hi
    children: dict[int, list[tuple[float, float]]] = {}
    for i in range(lo, hi):
        p = parents[i]
        if p >= lo:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = {}
    for i in range(lo, hi):
        s0, e0 = starts[i], ends[i]
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, s0), min(ce, e0)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[i] = (e0 - s0) - covered
    return out


def layer_times(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-metric time of the spans lo..hi-1 (one operation), plus
    ``unattributed_s``: the self time of the root span."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent, lo, hi)
    out = {metric: 0.0 for metric in set(SPAN_METRIC.values())}
    out["unattributed_s"] = 0.0
    for i in range(lo, hi):
        name = tracer.names[tracer.name[i]]
        if name == ROOT:
            out["unattributed_s"] += selfs[i]
        elif name in INCLUSIVE:
            out[SPAN_METRIC[name]] += tracer.end[i] - tracer.start[i]
        else:
            out[SPAN_METRIC[name]] += selfs[i]
    return out


# ---------------------------------------------------------------------------
# wrappers


def _wrap(tracer: Tracer, fn, name, after=None):
    """Wrap ``fn`` in a span; ``name`` is a string or a function of the
    call's (args, kwargs).  ``after(args, kwargs, result)`` updates counters
    once the span has ended."""
    fixed = isinstance(name, str)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name if fixed else name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _count_wiener(c: Counter):
    def after(args, kwargs, result):
        c["sources.calls"] += 1
        c["sources.values_drawn"] += result.size
    return after


def _count_jumps(c: Counter):
    def after(args, kwargs, result):
        # list of JumpEvent, or a (times, sizes) pair of arrays
        n = len(result[0]) if isinstance(result, tuple) else len(result)
        c["sources.calls"] += 1
        c["sources.jump_events"] += n
        c["sources.values_drawn"] += 2 * n
    return after


def _count_calls(c: Counter, key: str):
    def after(args, kwargs, result):
        c[key] += 1
    return after


def _count_integrate(c: Counter):
    def after(args, kwargs, result):
        states = result[0]
        c["engine.path_steps"] += (states.shape[0] - 1) * states.shape[1]
    return after


def _count_reflect(c: Counter):
    def after(args, kwargs, result):
        _, lower, upper = result
        d = lower.shape[-1]
        c["skorokhod.reflect_box_calls"] += 1
        c["skorokhod.reflect_rows"] += lower.size // d
        for face, inc in (("lower", lower), ("upper", upper)):
            active = (inc.reshape(-1, d) > 0).sum(axis=0)
            for k in range(d):
                c[f"skorokhod.reflect_active.{face}_{k}"] += int(active[k])
    return after


def _count_sobolev(c: Counter):
    def after(args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        shape = getattr(path, "shape", (len(path),))
        n = shape[0]
        d = shape[1] if len(shape) > 1 else 1
        # Computed, not measured: float64 pairwise arrays the seminorm builds,
        # two n*n*d (difference and its absolute value) and three n*n
        # (distance, gap and integrand).
        c["analysis.sobolev_bytes_computed"] += 8 * n * n * (2 * d + 3)
    return after


def _count_written(c: Counter):
    def after(args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        c["cli.bytes_written"] += os.path.getsize(path)
    return after


def _trajectory_name(args, kwargs):
    timing = kwargs.get("jump_timing", args[4] if len(args) > 4 else "end_of_step")
    return "engine.simulate_trajectory.exact" if timing == "exact" else "engine.simulate_trajectory"


def _wrap_scenario(tracer: Tracer, make_scenario):
    """Wrap ``make_scenario`` so the model it returns has traced coefficient
    callbacks (drift, diffusion and jump coefficient)."""
    count = _count_calls(tracer.counters, "models.coeff_calls")

    def build(*args, **kwargs):
        model = make_scenario(*args, **kwargs)
        wrapped = {
            field: _wrap(tracer, getattr(model, field), "models.coeff", count)
            for field in ("drift", "diffusion", "jump_coeff")
            if getattr(model, field) is not None
        }
        return dataclasses.replace(model, **wrapped)

    build.__perfbench_original__ = make_scenario
    return functools.wraps(make_scenario)(build)


def _targets(tracer: Tracer):
    """(module, attribute, wrapper factory) for every traced function."""
    c = tracer.counters

    def span(name, after=None):
        return lambda fn: _wrap(tracer, fn, name, after)

    return [
        ("sources", "sample_wiener_increments", span("sources.sample_wiener_increments", _count_wiener(c))),
        ("sources", "sample_compound_poisson", span("sources.sample_compound_poisson", _count_jumps(c))),
        ("sources", "sample_compound_poisson_arrays", span("sources.sample_compound_poisson_arrays", _count_jumps(c))),
        ("sources", "sample_ou_path", span("sources.sample_ou_path", _count_calls(c, "sources.calls"))),
        ("sources", "sample_ou_paths", span("sources.sample_ou_paths", _count_calls(c, "sources.calls"))),
        ("engine", "simulate_paths", span("engine.simulate_paths")),
        ("engine", "integrate_batch", span("engine.integrate_batch", _count_integrate(c))),
        ("engine", "simulate_trajectory", lambda fn: _wrap(tracer, fn, _trajectory_name)),
        ("engine", "simulate_ensemble", span("engine.simulate_ensemble")),
        ("skorokhod", "reflect_box", span("skorokhod.reflect_box", _count_reflect(c))),
        ("models", "make_scenario", lambda fn: _wrap_scenario(tracer, fn)),
        ("analysis", "holder_seminorm", span("analysis.holder_seminorm")),
        ("analysis", "sobolev_seminorm", span("analysis.sobolev_seminorm", _count_sobolev(c))),
        ("analysis", "stability_experiment", span("analysis.stability_experiment")),
        ("analysis", "strong_convergence_experiment", span("analysis.strong_convergence_experiment")),
        ("cli", "summarize", span("cli.summarize")),
        ("cli", "write_trajectory_csv", span("cli.write_trajectory_csv", _count_written(c))),
        ("cli", "write_long_csv", span("cli.write_long_csv", _count_written(c))),
        ("cli", "_write_json", span("cli._write_json", _count_written(c))),
        ("config", "parse_config", span("config.parse_config")),
    ]


def package_modules(package: str = "skorokhod_sde"):
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


@dataclasses.dataclass
class Patches:
    """The attributes ``install`` replaced, and the targets it did not find."""

    replaced: list  # (module, attribute, original)
    missing: list[str]

    def restore(self) -> None:
        for module, attr, original in reversed(self.replaced):
            setattr(module, attr, original)
        self.replaced = []


def install(tracer: Tracer, package: str = "skorokhod_sde") -> Patches:
    """Wrap every target function under every module attribute that refers
    to it (``from .engine import integrate_batch`` makes a second one)."""
    modules = package_modules(package)
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    replaced, missing = [], []
    for mod_name, attr, factory in _targets(tracer):
        original = getattr(by_name.get(mod_name), attr, None)
        if original is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        wrapped = factory(original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    replaced.append((module, name, original))
                    setattr(module, name, wrapped)
    return Patches(replaced, missing)
