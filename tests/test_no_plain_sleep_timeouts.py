"""A process that only sleeps yields the seconds, not a ``Timeout``.

``yield 2.0`` queues one wake-up entry; ``yield sim.timeout(2.0)``
also builds a ``Timeout``, its callback list and a bound method, and
throws all three away when the process wakes.  A ``Timeout`` earns its
cost only as a deadline composed with ``any_of``, which keeps a
reference to it.  This guard scans the Python files under ``src/``
with the standard library's ``ast`` and fails on any
``yield <expr>.timeout(...)``, so the allocations cannot creep back
one call site at a time.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def plain_sleep_timeouts(tree):
    """Lines of every ``yield <expr>.timeout(...)`` in ``tree``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Yield)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr == "timeout"
    ]


def test_no_process_sleeps_on_a_timeout():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line in plain_sleep_timeouts(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, (
        "a process sleeps on a Timeout (yield the seconds instead): "
        + "; ".join(found)
    )


def test_the_scan_sees_a_plain_sleep_and_spares_a_deadline():
    """The scan is not vacuous: a yielded ``timeout`` call is found,
    while a bare ``yield 2.0``, a deadline composed with ``any_of`` and
    a deadline yielded by name are not."""
    tree = ast.parse(
        "def proc(self, sim):\n"
        "    yield 2.0\n"
        "    yield self.sim.timeout(1.0)\n"
        "    deadline = sim.timeout(3.0)\n"
        "    yield sim.any_of([done, deadline])\n"
        "    yield deadline\n"
    )
    assert plain_sleep_timeouts(tree) == [3]
