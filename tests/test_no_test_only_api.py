"""``src/`` holds only what the program calls.

A function, method or class in ``src/repro`` that no run, example,
tool, benchmark or ``perf/`` code reaches is API kept alive by its own
tests: every stack built on the substrate pays for reading it, and
nothing checks that it still means what the tests say.  This guard
finds such names and requires each to be deleted or pinned below with
the reason a test needs it.

A def (dunders excepted) is live when its name is loaded somewhere that
counts.  A load is an ``ast.Name`` or ``ast.Attribute`` read, a name an
``ImportFrom`` outside a package ``__init__`` brings in, or an
identifier string constant outside ``__all__`` (``getattr(obj,
"name")``, a lazy-export table).  Loads count in ``examples/``,
``tools/``, ``perf/`` and ``benchmarks/``, in module-level code of
``src/``, and in the body of another live def; liveness is iterated to
a fixed point, so a def that only dead defs call is dead too.

Names are matched by name, not by type: one live ``run`` keeps every
``run``.  A method is reached only through an attribute or a string,
never through a bare name, so a local variable that shares its name
does not keep it.  Type hints load nothing: annotations and ``if
TYPE_CHECKING:`` imports never run.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Directories whose every load counts.
PROGRAM_DIRECTORIES = ("examples", "tools", "perf", "benchmarks")

#: Defs no program code reaches, each kept for the reason given.  The
#: names are matched like loads: one name pins every def of that name.
TEST_FACING = {
    # Oracles: what a simulated answer is checked against.
    "path_delay": "Network.path_delay: the shortest-path delay that "
                  "hop-by-hop forwarding is checked against",
    "covers": "Cell.covers: the coverage disc SignalMeter.scan and the "
              "dwell-time validation are checked against",
    "erlang_c": "analysis closed form: Erlang C, validated beside the "
                "Erlang B the program reads",
    "handoff_rate_linear_cells": "analysis closed form: the handoff rate "
                                 "simulated crossings are checked against",
    "location_update_cost": "analysis closed form: the location update "
                            "cost that location areas are to be sized by",
    "mean_cell_dwell_time": "analysis closed form: the fluid-flow mean "
                            "dwell time in a circular cell",
    "mean_residual_dwell_time": "analysis closed form: the dwell time "
                                "simulated random-direction walks match",
    # Observations of behaviour no book holds.
    "queue_depth": "Link.queue_depth: shows that an air-cancelled frame "
                   "frees its link's queue slot",
    "free": "GuardedChannelPool.free: the free-channel count the "
            "guard-channel admission tests assert",
    "position": "MobilityModel.position: where a model stands between "
                "steps; the controller reads what advance returns",
    "cause": "Interrupt.cause: what an interrupted process reads to learn "
             "why; the program's own interrupts only stop a loop",
    # Extension points.
    "register_stack": "the documented extension point a new protocol "
                      "stack registers itself through",
    "TracePlayback": "trace-driven mobility: replays a recorded path, the "
                     "scripted movement the controller tests drive",
    "linear_crossing": "TracePlayback's straight-line crossing",
    # Test scaffolding.
    "send_to_mobile": "CorrespondentNode.send_to_mobile: the one-packet "
                      "downlink send the protocol tests drive",
    "star_topology": "a hub-and-spoke wired network for the routing tests",
    "binary_tree_topology": "the binary router tree the routing tests "
                            "forward over",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_all_assignment(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _is_type_checking_block(node):
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
    )


def _loads(nodes, in_package_init):
    """``(named, attributed)``: names ``nodes`` load bare or as attributes.

    Type hints load nothing: annotations and ``TYPE_CHECKING`` imports
    are never run.  Imported names and identifier strings go in both
    sets, since either may stand for a method (``getattr``) or a
    module-level def.
    """
    named, attributed = set(), set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and (
            _is_all_assignment(node)
        ):
            continue
        if _is_type_checking_block(node):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.arg):
            continue
        if isinstance(node, ast.AnnAssign):
            stack.extend(n for n in (node.target, node.value) if n is not None)
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list)
            stack.append(node.args)
            stack.extend(node.body)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            named.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributed.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not in_package_init:
            imported = {alias.name for alias in node.names}
            named |= imported
            attributed |= imported
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            named.add(node.value)
            attributed.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return named, attributed


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _split(body, site, defs, outer, in_class=False):
    """Cut ``body`` at the defs the guard tracks.

    Each tracked def (module level, or in a tracked class's body) goes to
    ``defs`` as ``(name, site, is_method, own_nodes)``.  A dunder's body,
    and what the enclosing scope evaluates when the def statement runs
    (decorators, defaults, base classes), go to ``outer`` with the rest
    of that scope's code.
    """
    for statement in body:
        if not isinstance(statement, _DEFS):
            outer.append(statement)
            continue
        outer.extend(statement.decorator_list)
        if isinstance(statement, ast.ClassDef):
            outer.extend(statement.bases)
            outer.extend(statement.keywords)
            own = []
            _split(statement.body, site, defs, own, in_class=True)
        else:
            outer.append(statement.args)
            own = list(statement.body)
        if _is_dunder(statement.name):  # runs whenever its class does
            outer.extend(own)
        else:
            site_line = f"{site}:{statement.lineno}"
            defs.append((statement.name, site_line, in_class, own))


def scan(root, source="src/repro", program=PROGRAM_DIRECTORIES):
    """``{name: ["path:line", ...]}`` for every def no program code reaches.

    A method is reached only through an attribute or a string: a bare
    name never reaches it, so a local variable or another module's
    function of the same name does not keep it.
    """
    root = Path(root)
    named, attributed = set(), set()

    def load(nodes, in_package_init=False):
        more_named, more_attributed = _loads(nodes, in_package_init)
        named.update(more_named)
        attributed.update(more_attributed)

    defs = []
    for path in sorted((root / source).rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        module_level = []
        _split(tree.body, path.relative_to(root), defs, module_level)
        load(module_level, path.name == "__init__.py")
    for directory in program:
        for path in sorted((root / directory).rglob("*.py")):
            load([ast.parse(path.read_text(), str(path))])

    def is_live(name, is_method):
        return name in attributed or (not is_method and name in named)

    pending = list(defs)
    grown = True
    while grown:
        grown = False
        for entry in list(pending):
            name, _, is_method, own = entry
            if is_live(name, is_method):
                pending.remove(entry)
                load(own)
                grown = True
    dead = {}
    for name, site, is_method, _ in defs:
        if not is_live(name, is_method):
            dead.setdefault(name, []).append(site)
    return dead


def check(dead, pinned):
    """The guard's two failures as messages; empty when it passes."""
    problems = []
    unpinned = {name: sites for name, sites in dead.items() if name not in pinned}
    if unpinned:
        problems.append(
            "defined in src/ but reached by no run, example, tool, benchmark "
            f"or perf/ code; delete them or pin them with a reason: {unpinned}"
        )
    stale = sorted(set(pinned) - set(dead))
    if stale:
        problems.append(f"pinned names now live or gone; unpin them: {stale}")
    return problems


def test_every_def_in_src_is_reached_or_pinned():
    assert check(scan(ROOT), TEST_FACING) == []


# ----------------------------------------------------------------------
# The scanner itself, on a synthetic tree
# ----------------------------------------------------------------------
def _tree(root, files):
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


@pytest.fixture
def synthetic(tmp_path):
    return _tree(tmp_path, {
        "src/repro/__init__.py": (
            "from repro.core import f, g, run\n"
            "__all__ = ['f', 'g', 'run', 'shown', 'fetched']\n"
        ),
        "src/repro/core.py": (
            "def f():\n    return 1\n\n"
            "def g():\n    return f()\n\n"
            "def shown():\n    return 2\n\n"
            "def fetched():\n    return 3\n\n"
            "class Box:\n"
            "    def __repr__(self):\n        return 'Box'\n\n"
            "    def used(self):\n        return 4\n\n"
            "def run():\n"
            "    text = f'{shown()}'\n"
            "    return text, getattr(Box(), 'used')(), "
            "globals()['fetched']()\n"
        ),
        "tools/main.py": "from repro import run\nrun()\n",
    })


def test_scanner_flags_a_def_only_a_dead_def_calls(synthetic):
    assert sorted(scan(synthetic)) == ["f", "g"]


def test_scanner_counts_f_strings_and_getattr_strings(synthetic):
    dead = scan(synthetic)
    assert {"shown", "fetched", "used", "Box", "run"}.isdisjoint(dead)


def test_scanner_fails_on_a_stale_pin(synthetic):
    dead = scan(synthetic)
    assert check(dead, {"f": "why", "g": "why"}) == []
    assert check(dead, {"f": "why"})  # g is dead and unpinned
    stale = check(dead, {"f": "why", "g": "why", "run": "live now"})
    assert len(stale) == 1 and "'run'" in stale[0]
