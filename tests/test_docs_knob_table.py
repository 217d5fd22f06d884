"""The service-layer option table in ``docs/index.md`` matches the code.

Every keyword parameter of ``LTCDispatcher.__init__`` and
``ShardedDispatcher.__init__`` has exactly one row, and every row names a
real parameter.  An option cannot land (or linger) without a row that
says who sets it.
"""

import inspect
import re
from pathlib import Path

import pytest

from repro.service import LTCDispatcher, ShardedDispatcher

INDEX = Path(__file__).resolve().parent.parent / "docs" / "index.md"

CONSTRUCTORS = (LTCDispatcher, ShardedDispatcher)

#: ``| `constructor` | `option` | set by |``; a row with an empty
#: "set by" cell does not match, so it counts as missing.
_ROW = re.compile(r"^\| `(\w+)` \| `(\w+)` \| \S.* \|$")


def documented_rows():
    """``(constructor, option)`` for every row of the option table."""
    text = INDEX.read_text(encoding="utf-8")
    table = text.split("The service layer's constructor options", 1)[1]
    table = table.split("\n\n", 2)[1]  # the block right after the lead-in
    rows = []
    for line in table.splitlines():
        match = _ROW.match(line)
        if match:
            rows.append((match.group(1), match.group(2)))
    return rows


def keyword_parameters(cls):
    return [
        name
        for name, parameter in inspect.signature(cls.__init__).parameters.items()
        if name != "self"
        and parameter.kind in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
    ]


@pytest.mark.parametrize("cls", CONSTRUCTORS, ids=lambda cls: cls.__name__)
def test_rows_equal_the_constructors_keyword_parameters(cls):
    documented = [option for name, option in documented_rows() if name == cls.__name__]
    assert sorted(documented) == sorted(keyword_parameters(cls))
