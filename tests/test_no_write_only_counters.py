"""A node keeps protocol state, not tallies.

Every packet a run moves or drops is booked once, in its simulator's hop
tally (:func:`repro.net.protocol_hop_totals`) or drop ledger
(:func:`repro.net.drop_totals`).  A per-object counter that the program
only bumps and never reads is a second, unread copy of those books.
This guard scans ``src/repro`` for ``self.<name> += ...`` and requires
each such name to be read somewhere in ``src/``, ``examples/``,
``tools/`` or ``perf/``, or to be one of the few counters pinned below
with the reason the tests observe it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Counters the program bumps but only tests read, each kept because no
#: book holds the same fact.
TEST_OBSERVED = {
    "data_received": "data packets a mobile or correspondent took in: "
                     "the protocol's own observation, asserted by many "
                     "tests; the hop tally counts hops, not deliveries "
                     "per node",
    "authentications": "the RSMC's completed authentications of mobiles "
                       "arriving from another domain (§3.2): a protocol "
                       "step, not a packet count",
    "forwarded_to_new_domain": "packets the RSMC tunnels on to a mobile's "
                               "new domain; the hop tally books them with "
                               "every other ``ipip`` hop",
    "bytes_sent": "a traffic source's sent bytes, compared against the "
                  "elastic reference model",
    "frames_sent": "a VBR source's frames, compared against its frame "
                   "rate",
    "expirations": "RoutingCache's timed-out mappings, compared against "
                   "the reference cache model",
}


def _python_files(*directories):
    for directory in directories:
        yield from sorted((ROOT / directory).rglob("*.py"))


def _bumped_counters():
    """``{name: ["path:line", ...]}`` for every ``self.<name> += ...``."""
    bumped = {}
    for path in _python_files("src/repro"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.AugAssign):
                continue
            target = node.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                site = f"{path.relative_to(ROOT)}:{node.lineno}"
                bumped.setdefault(target.attr, []).append(site)
    return bumped


def _attributes_read():
    return {
        node.attr
        for path in _python_files("src", "examples", "tools", "perf")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_bumped_counter_is_read_or_pinned():
    read = _attributes_read()
    unread = {
        name: sites for name, sites in _bumped_counters().items() if name not in read
    }
    write_only = {name: sites for name, sites in unread.items()
                  if name not in TEST_OBSERVED}
    assert not write_only, (
        "counters bumped but never read outside tests; book the fact in "
        f"the hop tally or drop ledger, or delete the counter: {write_only}"
    )
    stale = sorted(set(TEST_OBSERVED) - set(unread))
    assert not stale, f"pinned counters now read or gone; unpin them: {stale}"
