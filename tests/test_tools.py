import importlib.util
import pathlib

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Each line that counts ends in "# code"; the others are docstrings,
# comments, blank lines and the NL/INDENT/DEDENT-only lines between.
SYNTHETIC = '''"""Module docstring,
over two lines."""

import os  # code

# a comment


class Thing:  # code
    """Class docstring."""

    size = (1,  # code
            2)  # code

    def method(self):  # code
        """Method
        docstring."""
        text = """a string that is  # code
        not a docstring"""  # code
        "an expression after the first statement"  # code
        return text  # code


async def fetch():  # code
    """Async docstring."""
    return os.sep  # code
'''


def test_code_lines_counts_only_code():
    code_lines = load_tool("code_lines")
    expected = sum(line.rstrip().endswith("# code")
                   for line in SYNTHETIC.splitlines())
    assert expected == 11
    assert code_lines.code_lines(SYNTHETIC) == expected


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    code_lines = load_tool("code_lines")
    (tmp_path / "a.py").write_text(SYNTHETIC)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\nx = 1\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    11  a.py", "     1  b.py", "    12  total"]
