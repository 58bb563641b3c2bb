"""The benchmark's workloads: which CLI commands one round runs, with which
config, and how much simulation one round does.  Why each was chosen is in
README.md and BENCHMARK.json.

Every workload uses the default config apart from the keys named here, so
these are the cases a user gets without tuning.  A round is one operation,
except on ``experiments``, where it is the stability and converge commands
run back to back (see README.md for why).

This module imports nothing outside the standard library, so the fresh
interpreter that measures set-up time can load it before the package.
"""
from __future__ import annotations

from dataclasses import dataclass

GOLDEN_SEED = 42  # the config's default seed; its outputs are in golden/

MODES = ("white_noise", "ou_current", "ou_reflected", "ou_reflected_jumps")
REFLECTED_MODES = ("ou_reflected", "ou_reflected_jumps")
N_POINTS = 1001  # T = 100, dt = 0.1


@dataclass(frozen=True)
class Command:
    command: str        # CLI subcommand
    config: str = ""    # config document text ("" = defaults)
    paths: int = 1      # --paths override (1 = the config default)

    def argv(self, seed: int, out: str, config_path: str) -> list[str]:
        head = ["--config", config_path] if self.config else []
        if self.paths != 1:
            head += ["--paths", str(self.paths)]
        return head + ["--seed", str(seed), "--out", out, self.command]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    path_steps: int     # simulated paths x grid steps in one round


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ensemble",
            (Command("simulate", paths=1000),),
            1000 * 1000,
        ),
        Workload(
            "panels",
            (Command("panels"),),
            4 * 1000,
        ),
        Workload(
            "experiments",
            (
                Command("stability", "[experiment]\nkind = stability\n"),
                Command("converge", "[experiment]\nkind = converge\n"),
            ),
            # stability: reference + 3 offsets, 200 paths, 200 steps each;
            # converge: 200 paths on levels 4..9 and the level-12 reference.
            4 * 200 * 200 + 200 * (sum(2**k for k in range(4, 10)) + 2**12),
        ),
        Workload(
            "exact",
            # 20 paths, not 40: 3 s rounds left 4-9 rounds in a run and
            # their medians spread by 10% between runs.
            (Command("simulate", "[engine]\njump_timing = exact\n", paths=20),),
            20 * 1000,
        ),
    )
}
