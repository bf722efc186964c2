import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 20 lines; the code lines are 4, 8, 10-11, 13, 17-20
SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps its line


# a comment-only line
class Box:
    """Class docstring."""
    label = """a string that is no docstring
    counts"""

    def size(self):
        """Function
        docstring.
        """

        return (
            len(os.sep)
            + 2
        )
'''


def test_count_drops_blank_comment_and_docstring_lines():
    assert code_lines.count(SOURCE) == (21, 9)


def test_main_totals_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["lines", "code", "module"],
        ["21", "9", "a.py"],
        ["3", "1", "b.py"],
        ["24", "10", "total"],
    ]
