"""numpy and the thread pool load only when a simulation runs, no
command loads multiprocessing, and statistics, fractions,
importlib.resources and dataclasses never load.
Each command loads only the modules it runs, and `import fivedecision`
loads none.

Each check runs in a fresh interpreter, because the test modules load
numpy themselves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import fivedecision
from fivedecision.simulation import SimulationConfig, run_simulation

SRC = str(Path(__file__).resolve().parents[1] / "src")
# The directory numpy is installed in.  On PYTHONPATH it stays importable
# under `python -S`, which skips site and its .pth files.
NUMPY_SITE = str(Path(numpy.__file__).resolve().parents[1])

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

# 70000 trials make five blocks, two or more for each of two shares, so
# two workers take the pool path.
SIM_ARGS = ["--n", "12", "--effect", "0.3", "--trials", "70000", "--seed", "9"]

# Runs cli.main on sys.argv[1:] under `python -S`, so that no site .pth
# file preloads a module, and prints the exit code and then the name of
# every loaded module, one a line.  It imports nothing beyond io and sys.
LOADS = """
import io, sys
from fivedecision import cli
sys.stdout, stdout = io.StringIO(), sys.stdout
code = cli.main(sys.argv[1:])
sys.stdout = stdout
print(code, *sys.modules, sep="\\n")
"""

DECIDE = ["decide", "--summary", "10,205.6,65.2,10,258.9,70.3"]
SIMULATION_ONLY = {"fivedecision.simulation", "numpy"}
# The records are named tuples, so no command loads dataclasses, nor the
# inspect it imports; numpy, which simulate loads, imports inspect itself.
DATACLASS_MODULES = {"dataclasses", "inspect"}


def _python(*args, path=()):
    env = dict(os.environ)
    parts = [SRC, *path, env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, parts))
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
        n_per_group=12, mean_diff_over_sigma=0.3, alpha=0.05, trials=70000, seed=9
    )
    assert json.loads(result["stdout"]) == run_simulation(cfg).to_dict()


def test_pool_output_matches_one_worker():
    argv = ["-m", "fivedecision", "simulate", *SIM_ARGS, "--format", "json"]
    assert _python(*argv, "--workers", "2") == _python(*argv, "--workers", "1")


# Runs a two-task simulation with _simulate_chunk wrapped to note the
# loaded modules as each share starts, and prints the modules that the
# shares loaded themselves, one a line.
SHARES_LOAD = """
import sys
from fivedecision import simulation
chunk, seen = simulation._simulate_chunk, []
def noting_chunk(task):
    seen.append(set(sys.modules))
    return chunk(task)
simulation._simulate_chunk = noting_chunk
simulation._available_cpus = lambda: 2
cfg = simulation.SimulationConfig(12, 0.3, 0.05, 70000, 9)
simulation.run_simulation(cfg, workers=2)
print(*sorted(set(sys.modules) - seen[0]), sep="\\n")
"""


def test_simulation_shares_load_no_module():
    # A Ctrl-C that lands in the calling thread's share while it imports
    # a module a pool thread also waits for hangs the call, so every
    # module the shares use loads before the first share starts.
    assert _python("-S", "-c", SHARES_LOAD, path=[NUMPY_SITE]).split() == []


def _loads(*argv):
    code, *modules = _python("-S", "-c", LOADS, *argv, path=[NUMPY_SITE]).split()
    assert code == "0"
    return set(modules)


def test_bare_package_import_loads_no_submodule():
    probe = "import fivedecision, sys; print([m for m in sys.modules if m.startswith('fivedecision')])"
    assert _python("-S", "-c", probe) == "['fivedecision']\n"


def test_decide_loads_only_what_it_runs():
    unused = {"fivedecision.power", "fivedecision.datasets", "json", "csv", "decimal", "typing"}
    assert _loads(*DECIDE) & (unused | SIMULATION_ONLY | DATACLASS_MODULES) == set()


def test_csv_and_json_load_when_used(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("group,value\na,1\na,2\nb,2\nb,4\n")
    csv_loads = _loads("decide", "--csv", str(path))
    assert "csv" in csv_loads
    assert "json" not in csv_loads
    json_loads = _loads(*DECIDE, "--format", "json")
    assert "json" in json_loads
    assert "csv" not in json_loads


@pytest.mark.parametrize(
    "argv",
    [
        ["power", "--effect", "2.5"],
        ["samplesize", "--power", "0.8", "--delta", "0.5", "--tau-sq", "2"],
        ["table"],
    ],
    ids=lambda argv: argv[0],
)
def test_planning_commands_load_power_not_simulation(argv):
    loaded = _loads(*argv)
    assert "fivedecision.power" in loaded
    assert loaded & (SIMULATION_ONLY | DATACLASS_MODULES | {"decimal", "typing"}) == set()


def test_regions_loads_neither_power_nor_simulation():
    unused = {"fivedecision.power", "decimal", "typing"}
    assert _loads("regions") & (unused | SIMULATION_ONLY | DATACLASS_MODULES) == set()


def test_simulate_loads_simulation_and_numpy():
    loaded = _loads("simulate", *SIM_ARGS)
    assert SIMULATION_ONLY <= loaded
    assert "fivedecision.power" not in loaded
    assert "dataclasses" not in loaded


def test_pooled_simulate_loads_no_process_machinery():
    loaded = _loads("simulate", *SIM_ARGS, "--workers", "2")
    assert "concurrent.futures.thread" in loaded
    assert loaded & {"multiprocessing", "concurrent.futures.process"} == set()


class TestLazyNamespace:
    def test_every_public_name_is_its_submodules_object(self):
        for name in fivedecision.__all__:
            value = getattr(fivedecision, name)
            if name == "__version__":
                continue
            assert value.__module__.startswith("fivedecision.")
            assert getattr(sys.modules[value.__module__], name) is value

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from fivedecision import *", namespace)
        assert set(fivedecision.__all__) <= set(namespace)
        assert namespace["run_simulation"] is run_simulation

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            fivedecision.no_such_name
        assert not hasattr(fivedecision, "power_walds")

    def test_dir_lists_the_public_names(self):
        assert dir(fivedecision) == sorted(fivedecision.__all__)
