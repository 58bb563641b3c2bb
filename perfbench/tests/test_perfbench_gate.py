"""The output gate, on real CLI outputs of the golden seed."""
import json
import shutil

import pytest

import gate
import run
from workloads import GOLDEN_SEED, WORKLOADS


@pytest.fixture(scope="module")
def panels(tmp_path_factory):
    """One gated round of the panels workload on the golden seed."""
    golden = json.loads((run.HERE / "golden" / "seed42.json").read_text())["panels"]
    runner = run.Runner(run.load_cli(), WORKLOADS["panels"], tmp_path_factory.mktemp("work"), golden)
    runner.round(GOLDEN_SEED)
    return runner, golden["panels"]


def _gate_copy(runner, golden, tmp_path, edit):
    cmd = runner.workload.commands[0]
    out = tmp_path / "out"
    shutil.copytree(runner.out_dir(cmd), out)
    edit(out)
    return gate.check_command(cmd, out, 0, GOLDEN_SEED, golden)[0]


def test_golden_round_passes(panels):
    runner, _ = panels
    assert (runner.attempted, runner.failed, runner.problems) == (1, 0, [])


def _flip_digit(text: str, start: int) -> str:
    i = next(k for k in range(start, len(text)) if text[k] in "123456789")
    return text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:]


def test_one_flipped_digit_in_a_csv_fails(panels, tmp_path):
    def edit(out):
        path = out / "panel_ou_reflected.csv"
        text = path.read_text()
        path.write_text(_flip_digit(text, text.index("\n", text.index("\n") + 1) - 3))

    problems = _gate_copy(*panels, tmp_path, edit)
    assert any("golden digest" in p for p in problems)


def test_one_flipped_digit_in_a_json_number_fails(panels, tmp_path):
    def edit(out):
        path = out / "panels_summary.json"
        text = path.read_text()
        key = '"holder_seminorm": '
        path.write_text(_flip_digit(text, text.index(key) + len(key)))  # leading digit

    problems = _gate_copy(*panels, tmp_path, edit)
    assert any("vs golden" in p for p in problems)


def test_seed_independent_checks_catch_broken_outputs(panels, tmp_path):
    def edit(out):
        # a short float no longer round-trips at 17 digits, and r_E < 0 in a
        # reflected mode
        path = out / "panel_ou_reflected_jumps.csv"
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[1] = "-0.5"
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")

    problems = _gate_copy(*panels, tmp_path, edit)
    assert any("below 0" in p for p in problems)
    problems = _gate_copy(*panels, tmp_path / "b",
                          lambda out: (out / "panels_long.csv").write_text("x\n"))
    assert any("does not match" in p for p in problems)


def test_exit_code_and_missing_files_fail(panels, tmp_path):
    runner, golden = panels
    cmd = runner.workload.commands[0]
    assert gate.check_command(cmd, tmp_path, 1, GOLDEN_SEED)[0]
    assert "missing" in gate.check_command(cmd, tmp_path, 0, GOLDEN_SEED)[0][0]


def test_compare_json_tolerance():
    problems = []
    gate.compare_json({"a": [1.0 + 5e-13, 2]}, {"a": [1.0, 2]}, "x", problems)
    assert problems == []
    gate.compare_json({"a": [1.0 + 5e-12, 2]}, {"a": [1.0, 2]}, "x", problems)
    assert len(problems) == 1
