"""Set-up time of one workload in this fresh interpreter: import the
package, build the CLI parser, parse the workload's config and build its
scenario.  Prints the seconds taken.

    python3 perfbench/setup_probe.py <repo root> <workload>
"""
import sys
import time

from workloads import WORKLOADS

root, name = sys.argv[1], sys.argv[2]
sys.path.insert(0, f"{root}/src")
command = WORKLOADS[name].commands[0]

t0 = time.perf_counter()
from skorokhod_sde.cli import build_parser  # noqa: E402
from skorokhod_sde.config import parse_config  # noqa: E402
from skorokhod_sde.models import make_scenario  # noqa: E402

build_parser().parse_args(command.argv(0, "out", "config.ini"))
make_scenario(parse_config(command.config).scenario_config())
print(time.perf_counter() - t0)
