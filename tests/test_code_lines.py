import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''\
"""A module docstring,
over two lines."""

# a comment line
import os  # a comment after code


class Table:
    """A class docstring."""

    ROWS = (1,
            2)  # a statement over two lines counts twice

    def names(self):
        """A def docstring
        over two lines."""
        text = """a string that is not a docstring,
        over two lines"""

        return [os.sep, text]
'''


def test_counts_code_lines_only():
    # import, class, ROWS (2), def, text = (2), return
    assert code_lines.code_lines(SNIPPET) == 8


def test_docstrings_are_those_that_open_a_body():
    assert code_lines.docstring_lines(SNIPPET) == {1, 2, 9, 15, 16}
