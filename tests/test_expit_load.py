"""``models.expit`` is scipy's compiled ufunc, loaded from its extension
module without the ``scipy.special`` package import.  Every check runs in a
fresh interpreter, since this test session imports ``scipy.special`` itself.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.special import expit

SRC = Path(__file__).resolve().parents[1] / "src"
SMALL = "[grid]\nhorizon = 2.0\ndt = 0.1\n"
COMMANDS = {
    "simulate": SMALL,
    "panels": SMALL,
    "stability": SMALL + "[experiment]\nkind = stability\noffsets = 0.1,0.01\nn_paths = 4\n",
    "converge": SMALL + "[experiment]\nkind = converge\nlevels = 3,4\nn_paths = 4\n",
    "validate": SMALL,
}

# The values compared: 10^6 N(0, 5^2) draws and the edges of the float range.
VALUES = """
import hashlib
import numpy as np
x = np.concatenate([np.random.default_rng(0).normal(0.0, 5.0, 10**6), [
    0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -1e-310, 710.0, -710.0, 745.0, -745.0]])
def digest(f):
    return hashlib.sha256(f(x).tobytes()).hexdigest()
"""
MODELS, SCIPY = "import skorokhod_sde.models", "import scipy.special"


def run_fresh(code: str, cwd=None) -> dict:
    """Run ``code`` in a new interpreter with ``src`` on the path and return
    the JSON object it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def reference_digest() -> str:
    """The digest of this process's ``scipy.special.expit`` on ``VALUES``."""
    scope = {}
    exec(VALUES, scope)
    return scope["digest"](expit)


def test_no_command_imports_scipy_special(tmp_path):
    for command, config in COMMANDS.items():
        (tmp_path / f"{command}.cfg").write_text(config)
    seen = run_fresh(f"""
import contextlib, io, json, sys
loaded = lambda: "scipy.special" in sys.modules
seen = {{}}
import skorokhod_sde
seen["import skorokhod_sde"] = [0, loaded()]
import skorokhod_sde.cli
seen["import skorokhod_sde.cli"] = [0, loaded()]
for command in {list(COMMANDS)!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = skorokhod_sde.cli.main(
            ["--seed", "1", "--config", f"{{command}}.cfg", "--out", command, command])
    seen[command] = [code, loaded()]
print(json.dumps(seen))
""", cwd=tmp_path)
    assert seen == {step: [0, False] for step in
                    ["import skorokhod_sde", "import skorokhod_sde.cli", *COMMANDS]}


@pytest.mark.parametrize("first, second", [(MODELS, SCIPY), (SCIPY, MODELS)],
                         ids=["models_first", "scipy_first"])
def test_expit_is_scipy_special_expit(first, second):
    result = run_fresh(VALUES + f"""
import json
{first}
{second}
print(json.dumps({{
    "same": skorokhod_sde.models.expit is scipy.special.expit,
    "digest": digest(skorokhod_sde.models.expit),
}}))
""")
    assert result == {"same": True, "digest": reference_digest()}


def test_failed_load_falls_back_to_the_package_import():
    result = run_fresh(VALUES + """
import importlib.util, json, sys
importlib.util.spec_from_file_location = lambda *args, **kwargs: None
import skorokhod_sde.models
fallback = "scipy.special" in sys.modules
import scipy.special
print(json.dumps({
    "fallback": fallback,
    "same": skorokhod_sde.models.expit is scipy.special.expit,
    "digest": digest(skorokhod_sde.models.expit),
}))
""")
    assert result == {"fallback": True, "same": True, "digest": reference_digest()}
