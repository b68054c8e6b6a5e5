"""numpy and the process pool load only when a simulation runs, and
statistics, fractions and importlib.resources never do.

Each check runs in a fresh interpreter, because the test modules load
numpy themselves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fivedecision.simulation import SimulationConfig, run_simulation

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Imports the package and its CLI, runs cli.main on the JSON argv in
# sys.argv[1] (nothing if empty), and prints as JSON the exit code, the
# captured stdout and which simulation-only modules are loaded.
PROBE = """
import contextlib, io, json, sys
from fivedecision import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(json.loads(sys.argv[1])) if sys.argv[1] else 0
loaded = [m for m in ("numpy", "concurrent.futures") if m in sys.modules]
print(json.dumps({"code": code, "loaded": loaded, "stdout": out.getvalue()}))
"""

SIM_ARGS = ["--n", "12", "--effect", "0.3", "--trials", "20000", "--seed", "9"]


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def _probe(argv):
    return json.loads(_python("-c", PROBE, json.dumps(argv) if argv else ""))


def test_package_import_loads_neither():
    # Also covers importing fivedecision.cli.
    assert _probe(None) == {"code": 0, "loaded": [], "stdout": ""}


def test_package_loads_no_exact_arithmetic():
    # The raw-data sd is formed in integers, not with statistics.stdev and
    # its Fractions, not even lazily.
    probe = (
        "import sys; from fivedecision import stattests; "
        "stattests.two_sample_t_raw([1.0, 1.5, 7.0], [2.0, 3.0]); "
        "print([m for m in ('statistics', 'fractions') if m in sys.modules])"
    )
    assert _python("-c", probe) == "[]\n"


def test_package_loads_no_resource_files():
    # -S skips site, whose .pth files may load importlib.resources first.
    probe = (
        "import sys, fivedecision.cli; "
        "print('importlib.resources' in sys.modules)"
    )
    assert _python("-S", "-c", probe) == "False\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--summary", "10,205.6,65.2,10,258.9,70.3"],
        ["power", "--effect", "2.5"],
        ["samplesize", "--power", "0.8", "--delta", "0.5", "--tau-sq", "2"],
        ["table"],
        ["regions"],
    ],
    ids=lambda argv: argv[0],
)
def test_other_commands_load_neither(argv):
    result = _probe(argv)
    assert result["code"] == 0
    assert result["stdout"]
    assert result["loaded"] == []


def test_simulate_loads_numpy_and_matches_library():
    result = _probe(["simulate", *SIM_ARGS, "--format", "json"])
    assert result["code"] == 0
    assert "numpy" in result["loaded"]
    cfg = SimulationConfig(
        n_per_group=12, mean_diff_over_sigma=0.3, alpha=0.05, trials=20000, seed=9
    )
    assert json.loads(result["stdout"]) == run_simulation(cfg).to_dict()


def test_pool_output_matches_one_worker():
    # 20000 trials make two chunks, so two workers take the pool path.
    argv = ["-m", "fivedecision", "simulate", *SIM_ARGS, "--format", "json"]
    assert _python(*argv, "--workers", "2") == _python(*argv, "--workers", "1")
