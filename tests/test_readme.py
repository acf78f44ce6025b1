"""The README's `## Library` example runs as written, and its grammar and
flag table match the parser's, so none of them can drift from the code."""
import re
from pathlib import Path

from fpdlab import script
from fpdlab.cli import build_arg_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.S).group(1)
    exec(compile(block, "README.md (Library)", "exec"), {})


def test_the_readme_grammar_is_the_parsers_grammar():
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n### Script language\n", 1)[1]
    block = re.match(r"\s*```\n(.*?)\n```", section, re.S).group(1)
    docstring = re.search(r"\n\n(\s*script\s*:=.*?)\n\n", script.__doc__, re.S).group(1)
    assert block.split() == docstring.split()  # whitespace-normalized


def test_the_readme_flag_table_lists_every_option():
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n### Flags, environment, exit codes\n", 1)[1]
    table = section.strip().split("\n\n", 1)[0]
    listed = re.findall(r"^\| `(--[a-z-]+)", table, re.M)
    options = [opt for action in build_arg_parser()._actions
               for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"]
    assert sorted(listed) == sorted(options)
    assert len(listed) == len(set(listed))
