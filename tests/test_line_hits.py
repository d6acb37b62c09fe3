import runpy
import textwrap
import threading
from pathlib import Path

LINE_HITS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "line_hits.py"))

MODULE = textwrap.dedent('''\
    """Module docstring."""

    LIMIT = 3  # module level: never a statement line


    def f(x):
        """Function docstring."""
        global LIMIT
        if x > LIMIT:
            return (x,
                    x)
        for _ in range(x):
            pass
        return x


    def g():
        def inner():
            return 1
        return 2


    class C:
        SIZE = 1

        def method(self):
            return self.SIZE


    def in_thread():
        return 4
    ''')


def test_statement_lines_are_instruction_lines_inside_functions(tmp_path):
    (tmp_path / "mod.py").write_text(MODULE)
    assert LINE_HITS["statement_lines"](tmp_path / "mod.py") == {
        9, 10, 12, 13, 14, 18, 19, 20, 27, 31}


def test_reports_the_statement_lines_no_call_ran(tmp_path):
    (tmp_path / "mod.py").write_text(MODULE)
    (tmp_path / "other.py").write_text("def h():\n    return 0\n")
    mod = runpy.run_path(str(tmp_path / "mod.py"))

    def calls():
        mod["f"](2)
        mod["g"]()
        thread = threading.Thread(target=mod["in_thread"])
        thread.start()
        thread.join()
        return "done"

    result, hits = LINE_HITS["run_traced"](calls, tmp_path)
    assert result == "done"
    # the return of f's first branch, inner's body and the method never ran
    assert LINE_HITS["missed_lines"](tmp_path, hits) == {"mod": [10, 19, 27],
                                                         "other": [2]}
