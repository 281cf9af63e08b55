"""What each entry point loads, and the lazy package namespace.

Each loading test runs in a fresh interpreter, since the test session has
long since imported every submodule.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import infocost

SRC = str(Path(infocost.__file__).parents[1])

# runs infocost.cli.main on argv[2:] with its output swallowed, then prints
# the loaded infocost submodules and whether numpy loaded
PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
argv = sys.argv[2:]
if argv:
    from infocost.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
else:
    import infocost
    rc = 0
mods = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("infocost."))
print(json.dumps({"rc": rc, "modules": mods, "numpy": "numpy" in sys.modules}))
"""


def _loaded(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, SRC, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["rc"] == 0
    return report


def _run(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.fixture
def cost_args(tmp_path):
    exp = tmp_path / "exp.json"
    exp.write_text(
        json.dumps(infocost.experiment_to_json(infocost.binary_experiment(0.8)))
    )
    beta = tmp_path / "beta.json"
    beta.write_text(json.dumps({"rule": "constant", "value": 1.0}))
    return ["--experiment", str(exp), "--beta", str(beta), "--prior", "0.5,0.5"]


@pytest.fixture
def solve_args(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(
        json.dumps(
            {
                "states": ["s0", "s1"],
                "actions": ["a0", "a1"],
                "utility": [[1.0, 0.0], [0.0, 1.0]],
                "prior": [0.5, 0.5],
            }
        )
    )
    beta = tmp_path / "beta.json"
    beta.write_text(json.dumps({"rule": "constant", "value": 1.0}))
    return ["--problem", str(problem), "--cost", "llr", "--beta", str(beta)]


BASE = ["cli", "costs", "errors", "experiments"]


class TestWhatLoads:
    def test_import_loads_no_submodule_and_no_numpy(self):
        report = _loaded()
        assert report["modules"] == []
        assert report["numpy"] is False

    def test_cost(self, cost_args):
        assert _loaded("cost", "--format", "json", *cost_args)["modules"] == BASE

    def test_solve(self, solve_args):
        assert _loaded("solve", *solve_args)["modules"] == BASE + ["solver"]

    def test_reproduce_gdp_skips_the_solver(self):
        assert _loaded("reproduce", "gdp")["modules"] == BASE + ["reproduce"]

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["cost", "--help"], 0), (["no_such_command"], 2)],
    )
    def test_help_and_usage_errors_load_no_numpy(self, argv, code):
        out = _run(
            "import contextlib, io\n"
            "from infocost.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        main({argv!r})\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "mods = sorted(m for m in sys.modules if m.startswith('infocost.'))\n"
            "print(code, 'numpy' in sys.modules, mods)"
        )
        assert out == f"{code} False ['infocost.cli', 'infocost.errors']"

    def test_generator_loads_no_numpy(self):
        out = _run(
            "import infocost.rng\n"
            "mods = sorted(m for m in sys.modules if m.startswith('infocost.'))\n"
            "print('numpy' in sys.modules, mods)"
        )
        assert out == "False ['infocost.errors', 'infocost.rng']"

    def test_check(self):
        assert _loaded("check", "--trials", "2")["modules"] == [
            "checks",
            "cli",
            "costs",
            "cumulants",
            "errors",
            "experiments",
            "rng",
        ]


class TestNamespace:
    def test_exports_are_the_submodules_objects(self):
        for name in infocost.__all__:
            home = importlib.import_module(f"infocost.{infocost._HOME[name]}")
            assert getattr(infocost, name) is getattr(home, name)

    @pytest.mark.parametrize(
        "load",
        [
            "importlib.import_module('infocost.cumulants')",
            "from infocost.cumulants import _plan",
            "infocost.run_suite",
        ],
    )
    def test_cumulants_stays_the_function(self, load):
        out = _run(
            f"import importlib, types, infocost\n{load}\n"
            "assert 'infocost.cumulants' in sys.modules\n"
            "print(isinstance(infocost.cumulants, types.FunctionType))"
        )
        assert out == "True"

    def test_submodule_resolves_without_import(self):
        out = _run("import types, infocost; print(isinstance(infocost.solver, types.ModuleType))")
        assert out == "True"

    def test_star_import(self):
        out = _run(
            "import infocost; ns = {}; exec('from infocost import *', ns)\n"
            "print(sorted(k for k in ns if k != '__builtins__') == infocost.__all__)"
        )
        assert out == "True"

    def test_dir_lists_exports_and_submodules(self):
        names = dir(infocost)
        assert set(infocost.__all__) <= set(names)
        assert {"solver", "cumulants", "cli", "__version__"} <= set(names)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(infocost, "no_such_name")
        assert not hasattr(infocost, "no_such_name")
