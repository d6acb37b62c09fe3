import runpy
import textwrap
from pathlib import Path

CODE_LINES = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"))


def test_counts_lines_without_docstrings_comments_or_blanks(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(textwrap.dedent('''\
        """Module docstring,
        over two lines."""

        # a comment
        X = """not a
        docstring"""  # two code lines


        class C:
            """Class docstring."""

            def f(self):
                """Function docstring."""
                return (1,
                        2)
        '''))
    assert CODE_LINES["code_lines"](source) == 6


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    assert CODE_LINES["main"](["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     2  a", "     1  b", "     3  total", ""]
