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

The same holds one level down, for a def's defaulted parameters: a
knob no run sets is a constant that a signature, a validation line and
a docstring paragraph pretend is variable.  The second guard requires
every defaulted parameter in ``src/repro`` to be set by program code
(``src/`` included) or be pinned with the reason a test needs it.  A
parameter is set by a keyword of that name in any call, by a position
in a call of a def of its owner's name, by a string key of a dict
literal (a ``**`` mapping such as ``domain_kwargs``) or by ``obj.name
= ...`` on a receiver other than ``self``.  Like defs, parameters are
matched by name: a ``period=`` anywhere sets every ``period``.  A
keyword whose value is a defaulted parameter of the def it sits in
(``partial(scenario, duration=duration)``) forwards that parameter: it
sets its name only once the forwarding def's own parameter is set.
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


#: Defaulted parameters no program code sets, each kept for the reason
#: given.  Keys are ``owner.parameter``, as :func:`unset_parameters`
#: names them.
TEST_SET = {
    # Reference and oracle tests that vary the value.
    "ElasticSource.initial_window": "test_elastic_reference drives the "
                                    "window rule from every start size",
    "ElasticSource.max_window": "test_elastic_reference drives the window "
                                "rule under every cap",
    "ElasticSource.feedback_timeout": "test_elastic_reference sets the "
                                      "deadline in whole reference ticks",
    "VBRVideoSource.burstiness": "the AR(1) frame-size reference is checked "
                                 "at several burstiness values",
    "VBRVideoSource.correlation": "the AR(1) frame-size reference is checked "
                                  "at several correlations, zero included",
    "SignalMeter.min_usable_dbm": "the scan-equals-measure hypothesis test "
                                  "draws the usable-signal floor",
    "RandomDirection.redirect_mean_interval": "the dwell-time oracle turns "
                                              "redirects off to match the "
                                              "straight-line closed form",
    "disc_rect_overlap_fraction.resolution": "the overlap oracle refines the "
                                             "quadrature grid to show it "
                                             "converges on the exact area",
    # Tests that need a value the default hides.
    "MultiTierDomain.auth_delay": "the auth-window test lengthens it to "
                                  "0.5 s to see no binding at 0.3 s and one "
                                  "by 2 s",
    "DecisionTrace.ring_size": "the ring-wrap and render tests wrap a "
                               "four-record ring and compare whole renderings",
    # Tests that need a shorter run than the program's.
    "experiment_e9.vehicles": "test_policy_presets shrinks E9 to two "
                              "vehicles to stay within its time budget",
    "experiment_e9.pedestrians": "test_policy_presets shrinks E9 to two "
                                 "pedestrians to stay within its time budget",
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


def _modules(root, directory):
    """``(path, tree)`` for every module under ``root / directory``."""
    for path in sorted((root / directory).rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


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
    for path, tree in _modules(root, source):
        module_level = []
        _split(tree.body, path.relative_to(root), defs, module_level)
        load(module_level, path.name == "__init__.py")
    for directory in program:
        for _path, tree in _modules(root, directory):
            load([tree])

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


UNREACHED = (
    "defined in src/ but reached by no run, example, tool, benchmark or perf/ code"
)
UNSET = "defaulted in src/ but set by no program code"


def check(dead, pinned, what=UNREACHED):
    """A guard's two failures as messages; empty when it passes."""
    problems = []
    unpinned = {name: sites for name, sites in dead.items() if name not in pinned}
    if unpinned:
        problems.append(
            f"{what}; delete them or pin them with a reason: {unpinned}"
        )
    stale = sorted(set(pinned) - set(dead))
    if stale:
        problems.append(f"pinned names now live or gone; unpin them: {stale}")
    return problems


def test_every_def_in_src_is_reached_or_pinned():
    assert check(scan(ROOT), TEST_FACING) == []


# ----------------------------------------------------------------------
# Defaulted parameters no program code sets
# ----------------------------------------------------------------------
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _callee(node):
    """The name a call reaches its function by, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _key(owner, node, parameter):
    """How :func:`unset_parameters` names ``parameter`` of def ``node``:
    ``owner`` is its class for ``__init__``, else the qualified name."""
    if node.name == "__init__":
        return f"{owner}.{parameter}"
    qualified = node.name if owner is None else f"{owner}.{node.name}"
    return f"{qualified}.{parameter}"


def _defaulted(tree):
    """``(class, def, parameter, position)`` for each defaulted parameter
    of a def in ``tree``: ``class`` is None outside a class body, and
    ``position`` is where a call's arguments fill the parameter (``self``
    not counted) or None for a keyword-only one."""
    methods = {
        id(statement): node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for statement in node.body
        if isinstance(statement, _FUNCTIONS)
    }
    for node in ast.walk(tree):
        if not isinstance(node, _FUNCTIONS):
            continue
        owner = methods.get(id(node))
        decorators = {_callee(decorator) for decorator in node.decorator_list}
        bound = owner is not None and "staticmethod" not in decorators
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        first = len(positional) - len(arguments.defaults)
        for index, argument in enumerate(positional[first:], first):
            yield owner, node, argument.arg, index - bound
        for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
            if default is not None:
                yield owner, node, argument.arg, None


def _parameter_reads(tree):
    """``{id(name): key}`` for each read in ``tree`` of a defaulted
    parameter of the def it sits in, ``key`` as :func:`_key` names it."""
    keys, reads = {}, {}
    for owner, node, parameter, _position in _defaulted(tree):
        keys.setdefault(id(node), {})[parameter] = _key(owner, node, parameter)

    def visit(node, scopes):
        if isinstance(node, (*_FUNCTIONS, ast.Lambda)):
            every = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
            scopes = [(every, keys.get(id(node), {}))] + scopes
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            # The innermost def (or lambda) with a parameter of this name.
            own = next((own for every, own in scopes if node.id in every), {})
            if node.id in own:
                reads[id(node)] = own[node.id]
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(tree, [])
    return reads


def _settings(trees):
    """``(named, filled, forwarded)`` over ``trees``: the names a
    keyword, a dict literal's string key or an attribute store on a
    receiver other than ``self`` sets, ``{callee: positions a call of
    it fills}``, and ``(key, name)`` for each keyword ``name=parameter``
    that forwards the enclosing def's defaulted parameter ``key``: it
    sets ``name`` only if ``key`` is itself set."""
    named, filled, forwarded = set(), {}, []

    def fill(callee, arguments):
        if any(isinstance(argument, ast.Starred) for argument in arguments):
            count = len(arguments) + 1_000  # a ``*`` may fill every position
        else:
            count = len(arguments)
        if callee is not None:
            filled[callee] = max(filled.get(callee, 0), count)

    for tree in trees:
        reads = _parameter_reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                # super().__init__(...) fills the bases' positions.
                for call in ast.walk(node):
                    if (
                        isinstance(call, ast.Call)
                        and _callee(call.func) == "__init__"
                        and isinstance(call.func.value, ast.Call)
                        and _callee(call.func.value.func) == "super"
                    ):
                        for base in node.bases:
                            fill(_callee(base), call.args)
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    source = reads.get(id(keyword.value))
                    if source is not None:
                        forwarded.append((source, keyword.arg))
                    elif keyword.arg:
                        named.add(keyword.arg)
                callee, arguments = _callee(node.func), node.args
                if callee == "partial" and arguments:
                    callee, arguments = _callee(arguments[0]), arguments[1:]
                elif callee == "__init__":  # Base.__init__(self, ...)
                    callee, arguments = _callee(node.func.value), arguments[1:]
                fill(callee, arguments)
            elif isinstance(node, ast.Dict):
                named.update(
                    key.value for key in node.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                )
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                named.add(node.attr)
    return named, filled, forwarded


def unset_parameters(root, source="src/repro", program=PROGRAM_DIRECTORIES):
    """``{"owner.parameter": ["path:line", ...]}`` for every defaulted
    parameter of a def in ``source`` that no code in ``source`` or
    ``program`` sets.  ``owner`` is the class for ``__init__``, else the
    def's qualified name.

    A class's ``__init__`` is called by the class's name and by the
    names of subclasses that define no ``__init__`` of their own.  A
    keyword that forwards a defaulted parameter of the def it sits in
    sets its name only once that parameter is set: the unset keys are
    recomputed until no forward adds a name.
    """
    root = Path(root)
    sources = list(_modules(root, source))
    trees = [tree for _path, tree in sources]
    for directory in program:
        trees += [tree for _path, tree in _modules(root, directory)]
    named, filled, forwarded = _settings(trees)

    bases, initialised = {}, set()
    for tree in trees[:len(sources)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {_callee(base) for base in node.bases}
                if any(
                    isinstance(s, _FUNCTIONS) and s.name == "__init__"
                    for s in node.body
                ):
                    initialised.add(node.name)

    def callers(owner):
        names = {owner}
        grown = True
        while grown:
            heirs = {
                name for name, parents in bases.items()
                if name not in names and name not in initialised and parents & names
            }
            names |= heirs
            grown = bool(heirs)
        return names

    def unset_under(named):
        unset = {}
        for path, tree in sources:
            for owner, node, parameter, position in _defaulted(tree):
                called_as = (
                    callers(owner) if node.name == "__init__" else {node.name}
                )
                if parameter in named:
                    continue
                if position is not None and any(
                    filled.get(name, 0) > position for name in called_as
                ):
                    continue
                site = f"{path.relative_to(root)}:{node.lineno}"
                unset.setdefault(_key(owner, node, parameter), []).append(site)
        return unset

    while True:
        unset = unset_under(named)
        more = {
            name for key, name in forwarded
            if key not in unset and name not in named
        }
        if not more:
            return unset
        named |= more


def test_every_defaulted_parameter_in_src_is_set_or_pinned():
    assert check(unset_parameters(ROOT), TEST_SET, UNSET) == []


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


_KNOBS = (
    "class Base:\n"
    "    def __init__(self, knob=1):\n"
    "        self.knob = knob\n\n"
    "class Heir(Base):\n"
    "    pass\n\n"
    "def build(first, knob=1, *, flag=False):\n"
    "    return first, knob, flag\n"
)


@pytest.mark.parametrize("program, flagged", [
    ("build(0)\n", {"Base.knob", "build.knob"}),  # left at the default
    ("build(0, knob=2)\n", set()),  # a keyword sets every ``knob``
    ("build(0, 2)\n", {"Base.knob"}),  # a position sets the called def's
    ("Heir(2)\n", {"build.knob"}),  # a subclass with no __init__ of its own
    (
        "class Child(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__(2)\n",
        {"build.knob"},
    ),
    ("partial(build, 0, 2)\n", {"Base.knob"}),
    ("Base(**{'knob': 2})\n", set()),  # a ``**`` mapping's key
    ("box = Base()\nbox.knob = 2\n", set()),  # an attribute store
])
def test_parameter_scanner_sees_every_way_program_code_sets_a_knob(
    tmp_path, program, flagged
):
    """Only a test passes ``knob`` and ``flag``: that keeps neither.
    ``self.knob = knob`` in the def's own class sets nothing."""
    root = _tree(tmp_path, {
        "src/repro/knobs.py": _KNOBS,
        "tools/main.py": "from repro.knobs import *\n" + program,
        "tests/test_knobs.py": (
            "from repro.knobs import Base, build\n"
            "Base(knob=2)\nbuild(0, 2, flag=True)\n"
        ),
    })
    unset = unset_parameters(root)
    assert set(unset) == flagged | {"build.flag"}
    assert check(unset, {"build.flag": "why"} | dict.fromkeys(flagged, "why"),
                 UNSET) == []


_FORWARDS = (
    "def inner(depth=1):\n"
    "    return depth\n\n"
    "def outer(levels=2):\n"
    "    return inner(depth=levels)\n"
)


@pytest.mark.parametrize("program, flagged", [
    ("outer()\n", {"inner.depth", "outer.levels"}),  # forwarded only
    ("outer(levels=3)\n", set()),  # a caller sets what outer forwards
    ("outer(3)\n", set()),  # by position too
])
def test_a_forwarded_keyword_sets_only_what_its_source_sets(
    tmp_path, program, flagged
):
    root = _tree(tmp_path, {
        "src/repro/forwards.py": _FORWARDS,
        "tools/main.py": "from repro.forwards import outer\n" + program,
    })
    assert set(unset_parameters(root)) == flagged
