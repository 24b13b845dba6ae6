"""Import-graph guard: numpy is the only third-party module a run needs.

Every CLI call, pool worker, campaign item and perf repetition is a
fresh interpreter that pays the import graph before its first event,
so a heavy import creeping back in is a cold-start regression on all of
them.  Each check runs in a clean child interpreter: this process has
pytest, hypothesis and whatever other tests imported.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

HEAVY = ("scipy", "networkx", "matplotlib")
#: The E-series modules; the scenario layer needs only ``runner``/``exec``.
E_SERIES = (
    "repro.experiments.registry",
    "repro.experiments.figures",
    "repro.experiments.ablations",
    "repro.experiments.baselines",
)

#: ``repro scenario sweep`` end to end, figure file included.
SWEEP_THROUGH_CLI = """
import contextlib, io, tempfile
from repro.cli import main
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    assert main(["scenario", "sweep", "sparse-rural/population", "--smoke", "-o", out]) == 0
"""

RUN_EVERY_STACK = """
from repro.scenarios import compare_scenario_stacks, format_stack_comparison, get_scenario
from repro.stacks import stack_names
(comparison,) = compare_scenario_stacks([get_scenario("sparse-rural").smoke()], seeds=[1, 2])
assert comparison.stacks == stack_names(), comparison.stacks
assert "mobileip_ci95" in format_stack_comparison(comparison)
"""


def loaded_after(statements: str, names) -> list[str]:
    """Which of ``names`` (or their submodules) a clean interpreter has
    in ``sys.modules`` after running ``statements``."""
    probe = (
        f"{statements}\n"
        "import sys\n"
        f"names = {tuple(names)!r}\n"
        "print(*[m for m in sys.modules\n"
        "        if any(m == n or m.startswith(n + '.') for n in names)], sep='\\n')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.parametrize(
    "statements",
    ["import repro.scenarios", "import repro.cli", RUN_EVERY_STACK],
    ids=["import-scenarios", "import-cli", "run-every-stack"],
)
def test_no_heavy_dependency_is_imported(statements):
    assert loaded_after(statements, HEAVY) == []


def test_scenario_layer_does_not_import_the_e_series():
    assert loaded_after("import repro.scenarios", E_SERIES) == []


def test_scenario_sweep_cli_does_not_import_the_e_series():
    assert loaded_after(SWEEP_THROUGH_CLI, E_SERIES) == []
