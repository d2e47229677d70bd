"""``tools/code_lines.py``: the code-line figure CI's job summary shows."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

# A comment.
import os  # a trailing comment


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring."""
        text = """a string,
        not a docstring"""
        return (os.sep,
                text)
'''


def test_counts_code_outside_docstrings_comments_and_blanks():
    # import, class, def, the two-line string, the two-line return.
    assert code_lines.code_lines(SAMPLE) == 7


def test_main_prints_one_total_per_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""Doc."""\nz = 3\n', encoding="utf-8")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == f"3 {tmp_path}\n"
