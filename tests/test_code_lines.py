"""The code-line count of tools/code_lines.py, the measure of src/ size.

Claims checked here:
    - docstrings of modules, classes and functions, blank lines and
      comment-only lines do not count
    - a comment after code does not stop its line from counting
    - each physical line of a multi-line statement counts, a string that
      is no docstring included
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import math  # counts: a comment after code

# a comment-only line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,
        over two lines."""
        return math.hypot(
            3.0,

            4.0,  # the blank line inside the call does not count
        )


async def waiting():
    """Coroutine docstring."""


def loose():
    text = """a string that is
    no docstring"""
    return text
'''
# lines 4, 9, 12, 15, 16, 18, 19, 22, 26, 27, 28 and 29
COUNTED = 12


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_code_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert _load_tool().code_lines(path) == COUNTED
