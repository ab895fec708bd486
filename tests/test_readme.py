import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block under the README's "## Library use" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library use\n") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    # an example left on an old signature fails here with TypeError
    exec(compile(library_example(), str(README), "exec"), {})
    line = capsys.readouterr().out.strip()
    lower, upper = re.fullmatch(r"(\S+) <= log Phi\(1\) <= (\S+)", line).groups()
    assert float(lower) <= float(upper)
