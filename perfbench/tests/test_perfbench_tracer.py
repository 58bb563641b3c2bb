"""The tracer: self-time arithmetic, wrapper install/restore, and counts."""
import numpy as np
import pytest

import tracer as tracing


def test_self_time_is_duration_minus_covered_child_intervals():
    # span 0 covers [0, 10]; children 1 [1, 3] and 2 [2, 5] overlap, so
    # together they cover [1, 5]; child 3 [8, 12] is clipped to [8, 10];
    # span 4 is a grandchild inside span 1 and does not count for span 0.
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 1]
    got = tracing.self_times(starts, ends, parents)
    assert got[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert got[1] == pytest.approx(2.0 - 1.0)
    assert got[2] == pytest.approx(3.0)
    assert got[4] == pytest.approx(1.0)


def test_self_times_of_a_window_ignore_parents_before_it():
    starts, ends, parents = [0.0, 1.0, 2.0], [9.0, 4.0, 3.0], [-1, 0, 1]
    got = tracing.self_times(starts, ends, parents, lo=1)
    assert set(got) == {1, 2}
    assert got[1] == pytest.approx(2.0)


def _module_attrs():
    return {m.__name__: dict(vars(m)) for m in tracing.package_modules()}


def test_install_wraps_every_alias_and_restore_puts_back_every_attribute():
    from skorokhod_sde import analysis, cli, engine, models, skorokhod

    before = _module_attrs()
    original = engine.integrate_batch
    patches = tracing.install(tracing.Tracer())
    try:
        assert patches.missing == []
        # analysis and engine each look integrate_batch up in their own globals
        assert engine.integrate_batch is not original
        assert analysis.integrate_batch is engine.integrate_batch
        assert engine.reflect_box is skorokhod.reflect_box
        assert cli.make_scenario is models.make_scenario
        assert cli.make_scenario.__perfbench_original__ is before["skorokhod_sde.models"]["make_scenario"]
    finally:
        patches.restore()
    after = _module_attrs()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        changed = [k for k, v in attrs.items() if after[name][k] is not v]
        assert changed == [], (name, changed)


def test_traced_run_nests_spans_counts_work_and_keeps_outputs():
    from skorokhod_sde import engine, models
    from skorokhod_sde.config import parse_config

    doc = parse_config("[grid]\nhorizon = 2.0\n")
    plain = engine.simulate_paths(models.make_scenario(doc.scenario_config()),
                                  doc.build_grid(), 7, range(3))
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        model = models.make_scenario(doc.scenario_config())
        traced = engine.simulate_paths(model, doc.build_grid(), 7, range(3))
    finally:
        patches.restore()
    for a, b in zip(plain[:3], traced[:3]):
        np.testing.assert_array_equal(a, b)

    names = [tracer.names[i] for i in tracer.name]
    parent_of = {names[i]: names[p] for i, p in enumerate(tracer.parent) if p >= 0}
    assert names[0] == "engine.simulate_paths" and tracer.parent[0] == -1
    assert parent_of["engine.integrate_batch"] == "engine.simulate_paths"
    assert parent_of["skorokhod.reflect_box"] == "engine.integrate_batch"
    assert parent_of["models.coeff"] == "engine.integrate_batch"
    c = tracer.counters
    assert c["engine.path_steps"] == 3 * 20
    assert c["skorokhod.reflect_rows"] == 3 * 20
    assert c["skorokhod.reflect_box_calls"] == 20
    assert c["models.coeff_calls"] == 3 * 20  # drift, diffusion, jump coefficient
    # 2 Wiener streams of 20 steps + the OU current's 20 per path, plus jumps
    jumps = sum(len(events) for events in traced[3])
    assert c["sources.jump_events"] == jumps
    assert c["sources.values_drawn"] == 3 * 60 + 2 * jumps

    times = tracing.layer_times(tracer, 0, len(tracer))
    total = tracer.end[0] - tracer.start[0]
    booked = sum(v for k, v in times.items() if k != "unattributed_s")
    assert booked == pytest.approx(total, rel=1e-9)
