"""Import-graph guard: numpy is the only third-party module a run needs.

Every CLI call, campaign and perf repetition is a fresh interpreter
that pays its import graph before its first event (``--jobs`` workers
are forked and inherit their parent's), so a heavy import creeping back
in is a cold-start regression on all of them, and a process that runs
one stack must not load the others.  Each check runs in a clean child
interpreter: this process has pytest, hypothesis and whatever other
tests imported.
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

#: What a single-stack run has no use for: the other stacks' adapters
#: and protocol packages, the multi-run layer, and the execution engine
#: and table renderer that layer brings.
NOT_FOR_ONE_MULTITIER_RUN = (
    "repro.stacks.cellularip",
    "repro.stacks.mobileip",
    "repro.cellularip",
    "repro.scenarios.sweep",
    "repro.scenarios.grid",
    "repro.scenarios.compare",
    "repro.experiments",
    "repro.metrics",
    "repro.campaign",
)

RUN_ONE_MULTITIER_WORLD = """
from repro.scenarios import build_scenario, get_scenario
metrics = build_scenario(get_scenario("sparse-rural").smoke(), 1).execute()
assert metrics["hop_total"] > 0
"""

#: The other stacks' adapters and the one protocol package only they
#: use (``repro.mobileip`` is also the multi-tier world's home agent).
OTHER_STACKS = NOT_FOR_ONE_MULTITIER_RUN[:3]

#: ``repro scenario run`` on one stack, through the multi-run layer.
ONE_STACK_THROUGH_CLI = """
import contextlib, io
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["scenario", "run", "sparse-rural", "--smoke", "--stack", "multitier"]) == 0
"""

#: The public surface of the two packages whose re-exports resolve on
#: first access, exercised the ways a caller can reach it.
LAZY_SURFACE = """
import repro.scenarios, repro.stacks
from repro.stacks import register_stack, stack_names, StackAdapter
SHIPPED = ["multitier", "cellularip", "cellularip-hard", "mobileip"]
assert stack_names() == SHIPPED
assert set(repro.scenarios.__all__) <= set(dir(repro.scenarios))
assert set(repro.stacks.__all__) <= set(dir(repro.stacks))

namespace = {}
exec("from repro.scenarios import *", namespace)
assert set(repro.scenarios.__all__) <= set(namespace)
exec("from repro.stacks import *", namespace)
assert set(repro.stacks.__all__) <= set(namespace)
assert namespace["get_stack"]("cellularip-hard").name == "cellularip-hard"
try:
    repro.scenarios.no_such_name
except AttributeError as error:
    assert "no_such_name" in str(error)
else:
    raise AssertionError("a lazy package must still refuse unknown names")

class External(StackAdapter):
    name = "external"
    description = "registered from outside the package"
    def build(self, spec, seed):
        raise NotImplementedError
register_stack(External())
assert stack_names() == SHIPPED + ["external"]
assert namespace["get_scenario"]("sparse-rural").replace(stack="external").stack == "external"

import contextlib, io
from repro.cli import main
stderr = io.StringIO()
with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
    code = main(["scenario", "run", "sparse-rural", "--smoke", "--stack", "hawaii"])
assert code == 2, code
assert "registered: multitier, cellularip, cellularip-hard, mobileip, external" in stderr.getvalue(), stderr.getvalue()
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


def test_one_multitier_run_loads_no_other_stack_and_no_multi_run_layer():
    assert loaded_after(RUN_ONE_MULTITIER_WORLD, NOT_FOR_ONE_MULTITIER_RUN) == []


def test_a_grid_loads_the_stacks_it_names_and_no_other():
    assert loaded_after(ONE_STACK_THROUGH_CLI, OTHER_STACKS) == []
    assert loaded_after(SWEEP_THROUGH_CLI, OTHER_STACKS) == []


def test_lazy_packages_keep_their_public_surface():
    """``stack_names()`` order, ``dir()``, ``import *``, an externally
    registered adapter and the unknown ``--stack`` message, in a process
    where no test has already resolved the lazy names."""
    loaded_after(LAZY_SURFACE, ())
