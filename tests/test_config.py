"""Tests for the configuration grammar: strict parsing, line-referenced
errors with stable codes, canonical emission and round-tripping."""
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skorokhod_sde import ConfigDocument, ConfigError, config, emit_config, parse_config
from skorokhod_sde.config import (
    E_CONTRADICTION,
    E_INVARIANT,
    E_SYNTAX,
    E_TYPE,
    E_UNKNOWN_KEY,
    E_UNKNOWN_SECTION,
    ConfigIssue,
    ExperimentConfig,
    _SCHEMA,
    _build,
    _convert,
)
from skorokhod_sde.models import ScenarioError
from skorokhod_sde.models import INPUT_MODES


def codes(exc: ConfigError):
    return [issue.code for issue in exc.issues]


class TestDefaults:
    def test_empty_document(self):
        doc = parse_config("")
        assert doc.input_mode == "ou_reflected_jumps"
        assert doc.horizon == 100.0
        assert doc.dt == 0.1
        assert doc.seed == 42
        assert doc.params.theta_E == 2.8
        assert doc.params.w_IE == 13.0

    def test_comments_and_blanks_ignored(self):
        doc = parse_config("# a comment\n\n[grid]\nhorizon = 50.0  # inline\n")
        assert doc.horizon == 50.0


class TestErrors:
    def test_negative_time_constant(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[scenario]\ntau_e = -1.0\n")
        assert codes(exc.value) == [E_INVARIANT]
        assert exc.value.issues[0].line == 2
        assert "positive" in exc.value.issues[0].message

    def test_contradictory_jumps(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[scenario]\ninput_mode = white_noise\n[jumps]\nintensity = 0.5\n")
        assert codes(exc.value) == [E_CONTRADICTION]
        assert exc.value.issues[0].line == 4

    def test_explicit_zero_intensity_not_contradictory(self):
        doc = parse_config("[scenario]\ninput_mode = white_noise\n[jumps]\nintensity = 0.0\n")
        assert doc.jump_intensity == 0.0

    def test_contradiction_is_make_scenarios(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[jumps]\nintensity = 0.5\n[scenario]\ninput_mode = ou_current\n")
        assert codes(exc.value) == [E_CONTRADICTION]
        assert exc.value.issues[0].line == 4
        assert exc.value.issues[0].message.endswith("which has no jumps")

    @pytest.mark.parametrize("given", ["", "[jumps]\nintensity = 0\n",
                                       "[jumps]\nintensity = -0.0\n"])
    def test_jump_free_modes_emit_canonical_zero(self, given):
        doc = parse_config("[scenario]\ninput_mode = ou_reflected\n" + given)
        assert "\nintensity = 0.0\n" in emit_config(doc)

    def test_negative_intensity_rejected_in_jump_free_mode(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[scenario]\ninput_mode = white_noise\n[jumps]\nintensity = -0.5\n")
        assert codes(exc.value) == [E_INVARIANT]
        assert exc.value.issues[0].line == 4

    def test_unknown_section(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[plotting]\ncolor = red\n")
        assert E_UNKNOWN_SECTION in codes(exc.value)

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[grid]\nstep = 0.1\n")
        assert codes(exc.value) == [E_UNKNOWN_KEY]
        assert exc.value.issues[0].line == 2

    def test_type_mismatch(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[grid]\ndt = fast\n")
        assert codes(exc.value) == [E_TYPE]

    def test_bad_choice(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[scenario]\ninput_mode = pink_noise\n")
        assert codes(exc.value) == [E_TYPE]

    def test_syntax_errors(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[grid]\nnot a statement\n")
        assert codes(exc.value) == [E_SYNTAX]
        with pytest.raises(ConfigError) as exc:
            parse_config("dt = 0.1\n")
        assert codes(exc.value) == [E_SYNTAX]

    def test_all_issues_collected_with_lines(self):
        text = "[grid]\ndt = fast\n[scenario]\ntau_e = -2.0\n[typo]\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        lines = [i.line for i in exc.value.issues]
        assert lines == sorted(lines)
        assert set(codes(exc.value)) == {E_TYPE, E_INVARIANT, E_UNKNOWN_SECTION}

    def test_invariant_checks(self):
        for text, code in (
            ("[grid]\nhorizon = -1.0\n", E_INVARIANT),
            ("[grid]\nlevel = 35\n", E_INVARIANT),
            ("[engine]\nn_paths = 0\n", E_INVARIANT),
            ("[engine]\nseed = -3\n", E_INVARIANT),
            ("[jumps]\nintensity = -0.5\n", E_INVARIANT),
            ("[jumps]\ndist = uniform\nlo = 2.0\nhi = 1.0\n", E_INVARIANT),
            ("[ou]\ngamma = 0.0\n", E_INVARIANT),
        ):
            with pytest.raises(ConfigError) as exc:
                parse_config(text)
            assert code in codes(exc.value), text


class TestRoundTrip:
    def test_default_round_trip(self):
        doc = ConfigDocument()
        assert parse_config(emit_config(doc)) == doc

    def test_modified_round_trip(self):
        doc = dataclasses.replace(
            ConfigDocument(),
            input_mode="ou_reflected",
            jump_intensity=0.0,
            horizon=20.0,
            dt=0.05,
            seed=7,
            n_paths=4,
            jump_timing="exact",
            out_dir="results",
            experiment=ExperimentConfig(kind="stability", offsets=(0.5, 0.05),
                                        levels=(3, 4), n_paths=10, horizon=5.0),
        )
        assert parse_config(emit_config(doc)) == doc

    def test_parsed_document_round_trip(self):
        text = (
            "[scenario]\ninput_mode = ou_reflected_jumps\ntheta_e = 3.0\n"
            "[jumps]\nintensity = 0.25\ndist = uniform\nlo = 0.5\nhi = 1.5\n"
            "[grid]\nlevel = 6\nhorizon = 8.0\n"
        )
        doc = parse_config(text)
        assert parse_config(emit_config(doc)) == doc
        assert np.array_equal(doc.build_grid().times, np.linspace(0.0, 8.0, 65))
        assert doc.build_grid().n_steps == 64


class TestScenarioAssembly:
    def test_jump_free_modes_have_zero_intensity(self):
        doc = parse_config("[scenario]\ninput_mode = ou_reflected\n")
        scenario = doc.scenario_config()
        assert scenario.jumps.intensity_alpha == 0.0

    def test_jump_mode_uses_configured_spec(self):
        doc = parse_config("[jumps]\nintensity = 0.75\ndist = constant\nvalue = 2.0\n")
        scenario = doc.scenario_config()
        assert scenario.jumps.intensity_alpha == 0.75
        assert scenario.jumps.jump_dist.kind == "constant"
        assert scenario.jumps.jump_dist.a == 2.0

    def test_panel_override_zeroes_jumps(self):
        doc = parse_config("")
        scenario = doc.scenario_config("ou_current")
        assert scenario.input_mode == "ou_current"
        assert scenario.jumps.intensity_alpha == 0.0

    def test_panel_rows_take_the_jumps_of_the_jump_row(self):
        doc = parse_config("[jumps]\nintensity = 0.75\n")
        assert doc.scenario_config(INPUT_MODES).jumps.intensity_alpha == 0.75
        assert doc.scenario_config(INPUT_MODES[:3]).jumps.intensity_alpha == 0.0


class TestSinglePassValidation:
    @pytest.mark.parametrize("text, line", [
        ("[ou]\nsigma = -1\n", 2),
        ("[experiment]\nkind = stability\nn_paths = 0\n", 3),
        ("[experiment]\nkind = converge\nn_paths = 0\n", 3),
        ("[experiment]\nkind = converge\nlevels = 0\n", 3),
        ("[experiment]\nkind = converge\nlevels = 28\n", 3),
        ("[experiment]\nkind = stability\n[grid]\ndt = 12.5\n", 4),
        ("[experiment]\nkind = converge\nlevels =\n", 3),
        ("[experiment]\nkind = stability\noffsets =\n", 3),
        ("[experiment]\nkind = stability\noffsets = -0.5\n", 3),
        ("[experiment]\nkind = stability\noffsets = 0.1\n", 3),
        ("[experiment]\nkind = stability\noffsets = 0.1,-0.1,0\n", 3),
        ("[experiment]\nkind = converge\nlevels = 5\n", 3),
        ("[experiment]\nkind = converge\nlevels = 5,5\n", 3),
        ("[grid]\ndt = 1e-13\n", 2),
        ("[grid]\ndt = 1e-7\n", 2),
        ("[engine]\nn_paths = 1000000000000\n", 2),
        ("[experiment]\nkind = stability\nn_paths = 10000000\n", 3),
        ("[experiment]\nkind = converge\nn_paths = 100000000\n", 3),
        ("[grid]\ndt = nan\n", 2),
        ("[grid]\nhorizon = inf\n", 2),
        ("[grid]\ndt = 0.3\n", 2),
        ("[grid]\nhorizon = 0.1\ndt = 0.1000000005\n", 3),  # 5e-10 off a 0.1 horizon
        ("[grid]\nlevel = -1\n", 2),
        ("[scenario]\ninput_mode = ou_reflected\nx0_e = -1\n", 3),
    ])
    def test_rejected_on_its_line(self, text, line):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert [issue.line for issue in exc.value.issues] == [line]

    @pytest.mark.parametrize("levels", ["28,27", "4,28", "31,32"])
    def test_converge_levels_cap_names_the_reference(self, levels):
        # the reference is REFERENCE_OFFSET = 3 levels finer than the finest
        # level written, and no level of "28,27" is over the grids' cap of 30
        with pytest.raises(ConfigError) as exc:
            parse_config(f"[experiment]\nkind = converge\nlevels = {levels}\n")
        assert [str(issue) for issue in exc.value.issues] == [
            "line 3: [E_INVARIANT] converge levels capped at 27, "
            "because the reference is 3 levels finer"]

    def test_grid_residual_is_relative_to_the_horizon(self):
        # 7e-11 does not divide 1e-10; its 1-step grid is 3e-11 short, which
        # an absolute 1e-9 allowance let through
        with pytest.raises(ConfigError) as exc:
            parse_config("[grid]\nhorizon = 1e-10\ndt = 7e-11\n")
        assert codes(exc.value) == [E_INVARIANT, E_INVARIANT]
        assert exc.value.issues[0].line == 2
        assert "integer multiple of dt" in exc.value.issues[0].message

    def test_memory_budget(self):
        assert parse_config("[grid]\ndt = 6.25e-5\n").dt == 6.25e-5  # fits, but not panels
        assert parse_config("[engine]\nn_paths = 4000\n").n_paths == 4000
        with pytest.raises(ConfigError, match="memory budget") as exc:
            parse_config("", overrides={("engine", "n_paths"): "1000000000000"})
        assert [str(issue)[:14] for issue in exc.value.issues] == ["[E_INVARIANT] "]

    def test_stability_budget_counts_the_dyadic_grid(self):
        # stability steps the [grid] on its own horizon: 2**20 steps here,
        # where dt = 0.1 would give 200; one stream's 17 rows, the reference
        # and 16 offsets, do not fit on them
        offsets = ",".join(str(n / 100) for n in range(1, 17))
        assert parse_config(f"[experiment]\nkind = stability\noffsets = {offsets}\n")
        with pytest.raises(ConfigError, match="stability needs .* memory budget") as exc:
            parse_config(f"[experiment]\nkind = stability\noffsets = {offsets}\n"
                         "[grid]\nlevel = 20\n")
        assert [issue.line for issue in exc.value.issues] == [5]

    def test_jump_events_count_against_the_budget(self):
        # 2 coordinates x 5e4 jumps per unit time x T = 100 is 1e7 expected
        # events: 64 bytes each and the kept path's 24-byte log entries
        # fit, exact timing's sub-steps and the log not
        assert parse_config("[jumps]\nintensity = 50000\n").jump_intensity == 5e4
        with pytest.raises(ConfigError, match="memory budget") as exc:
            parse_config("[jumps]\nintensity = 50000\n[engine]\njump_timing = exact\n")
        assert [issue.line for issue in exc.value.issues] == [4]

    def test_each_bad_key_named(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[scenario]\ntau_e = -1\ntheta_e = 3.0\nw_ee = -2\n")
        assert [issue.line for issue in exc.value.issues] == [2, 4]

    def test_override_applied_before_validation(self):
        doc = parse_config("[engine]\nn_paths = 0\n",
                           overrides={("engine", "n_paths"): "3"})
        assert doc.n_paths == 3

    def test_fallback_only_for_unset_keys(self):
        fallback = {("engine", "seed"): "9"}
        assert parse_config("", fallbacks=fallback).seed == 9
        assert parse_config("[engine]\nseed = 5\n", fallbacks=fallback).seed == 5
        assert parse_config("", {("engine", "seed"): "7"}, fallback).seed == 7


_VALUES = st.one_of(
    st.sampled_from([
        "0", "1", "2", "3", "-1", "0.05", "0.5", "2.0", "20", "4,5", "0.1,0.01", "", ",",
        "1e400", "white_noise", "ou_reflected", "uniform", "constant", "exact",
        "stability", "converge", "none", "fast",
    ]),
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    st.lists(st.integers(-2, 12), max_size=3).map(lambda v: ",".join(map(str, v))),
)


def _statement(section_key):
    """``key = value`` under its section, the value either the key's default
    or one drawn from ``_VALUES``."""
    section, key = section_key
    default = _SCHEMA[section_key][1]
    text = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
    return st.one_of(st.just(text), _VALUES).map(lambda v: f"[{section}]\n{key} = {v}")


_LINES = st.one_of(
    st.sampled_from(sorted(_SCHEMA)).flatmap(_statement),
    st.sampled_from(["[nowhere]", "stray = 1", "no equals sign", "# note", ""]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINES, max_size=8))
def test_any_document_parses_or_raises_config_error(lines):
    try:
        doc = parse_config("\n".join(lines))
    except ConfigError:
        return
    assert parse_config(emit_config(doc)) == doc


def prefix_search(statements):
    """(issues, document or None) of ``statements``, "[section]\\nkey = value"
    texts on lines 2, 4, ..., blamed by a prefix search: while the statements
    left do not build, rebuild their prefixes from the first, and blame the
    last statement of the first prefix that fails.  This is the reference
    for parse_config's one walk, which must blame exactly as it does."""
    issues, values, lines = [], {}, {}
    for line, statement in enumerate(statements, start=1):
        header, body = statement.split("\n")
        key, raw = (part.strip() for part in body.split("=", 1))
        section_key = (header[1:-1], key)
        _, default, choices = _SCHEMA[section_key]
        try:
            value = _convert(raw, default, choices)
        except ValueError as exc:
            issues.append(ConfigIssue(E_TYPE, 2 * line, f"{key}: {exc}"))
            continue
        values.pop(section_key, None)
        values[section_key] = value
        lines[section_key] = 2 * line
    items, doc = list(values.items()), None
    while True:
        try:
            doc = _build(dict(items))
            break
        except ValueError:
            pass
        for end in range(1, len(items) + 1):
            try:
                _build(dict(items[:end]))
            except ValueError as exc:
                section_key, _ = items.pop(end - 1)
                code = E_CONTRADICTION if isinstance(exc, ScenarioError) else E_INVARIANT
                issues.append(ConfigIssue(code, lines[section_key], str(exc)))
                break
    return sorted(issues, key=lambda i: i.line), None if issues else doc


def parse_counting_builds(text):
    """(issues, document or None, number of _build calls) of parse_config."""
    with mock.patch.object(config, "_build", wraps=_build) as spy:
        try:
            doc = parse_config(text)
        except ConfigError as exc:
            return list(exc.issues), None, spy.call_count
    return [], doc, spy.call_count


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(sorted(_SCHEMA)).flatmap(_statement), max_size=8))
def test_one_walk_blames_as_the_prefix_search(statements):
    issues, doc, builds = parse_counting_builds("\n".join(statements))
    expected = prefix_search(statements)
    assert (issues, doc) == expected
    if doc is not None:  # a -0.0 equals 0.0, but is emitted as written
        assert emit_config(doc) == emit_config(expected[1])
    blamed = [i for i in issues if i.code in (E_INVARIANT, E_CONTRADICTION)]
    # one build of the whole; when it fails, one per statement and one more
    # per blame after the first, to see whether the statements left build
    assert builds <= (len(statements) + len(blamed) if blamed else 1)


class TestBlame:
    def test_late_errors_cost_a_build_per_statement(self):
        statements = ["[scenario]\ntau_e = 2.0", "[scenario]\ntheta_e = 3.0",
                      "[ou]\nsigma = 0.2", "[jumps]\nrho = 0.02", "[grid]\nhorizon = 50.0",
                      "[engine]\nseed = 7", "[outputs]\ndir = runs", "[experiment]\nn_paths = 50",
                      "[engine]\nn_paths = 0", "[outputs]\nretain = -1", "[grid]\ndt = 0.3"]
        issues, _, builds = parse_counting_builds("\n".join(statements))
        assert [i.line for i in issues] == [18, 20, 22]
        assert (issues, None) == prefix_search(statements)
        # the whole, the eight kept, the first blame, the last two left
        # together, then each of them: 13, where rebuilding the prefixes
        # after each blame took 31
        assert builds == 13

    def test_a_later_statement_mends_an_earlier_one(self):
        # the horizon alone is no multiple of the default dt = 0.1, but the
        # dt that follows divides it: only the bad n_paths is blamed
        with pytest.raises(ConfigError) as exc:
            parse_config("[engine]\nn_paths = 0\n[grid]\nhorizon = 0.15\ndt = 0.05\n")
        assert [str(i) for i in exc.value.issues] == [
            "line 2: [E_INVARIANT] n_paths must be >= 1"]

    def test_valid_document_costs_one_build(self):
        _, doc, builds = parse_counting_builds("[grid]\nhorizon = 0.15\ndt = 0.05\n")
        assert doc.horizon == 0.15 and builds == 1
