"""The CI workflow loads: a plain YAML scalar may not hold ``": "``, and
one step named ``Census (seed 6: refusals)`` makes the whole file
invalid.  PyYAML is no CI dependency, so the ``name:`` lines are read
here: each value that holds ``": "`` must be quoted.
"""

import pathlib
import re

WORKFLOW = pathlib.Path(__file__).resolve().parent.parent / ".github/workflows/ci.yml"

_NAME = re.compile(r"^[ \t]*(?:- +)?name: *(.*?)[ \t]*$", re.MULTILINE)


def unquoted_names(text):
    """Every ``name:`` value in ``text`` that holds ``": "`` unquoted."""
    return [v for v in _NAME.findall(text) if ": " in v and v[:1] not in "'\""]


def test_every_name_in_the_ci_workflow_that_holds_a_colon_is_quoted():
    assert unquoted_names(WORKFLOW.read_text()) == []


def test_an_unquoted_colon_in_a_step_name_is_found():
    step = "Census of a run that refuses moves (idle-roam, seed 6: blocked attaches)"
    text = f"steps:\n  - name: Tier-1\n    run: pytest\n  - name: {step}\n    run: census\n"
    assert unquoted_names(text) == [step]
    assert unquoted_names(text.replace(step, f'"{step}"')) == []
