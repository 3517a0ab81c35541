"""The code-line counter behind the package's code-line figures."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "count_code_lines.py"
_spec = importlib.util.spec_from_file_location("count_code_lines", _SCRIPT)
counter = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counter)

SAMPLE = '''"""Module docstring,
over two lines."""

# A comment line.
import os  # a trailing comment does not hide the code


class Thing:
    """Class docstring."""

    size = 3

    def method(self):
        """Method docstring
        over two lines.
        """
        text = """a multi-line string
        that is not a docstring"""
        return (text,
                os.sep)


def bare():
    pass
'''


def test_sample_counts_code_lines_only():
    # import, class, size, def method, text (2 lines), return (2 lines), def bare, pass.
    assert counter.count_code_lines(SAMPLE) == 10


def test_empty_and_comment_only_sources_count_zero():
    assert counter.count_code_lines("") == 0
    assert counter.count_code_lines("# only a comment\n\n") == 0
    assert counter.count_code_lines('"""Only a docstring."""\n') == 0


def test_main_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    assert counter.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["    2 a.py", "   10 b.py", "   12 total"]
