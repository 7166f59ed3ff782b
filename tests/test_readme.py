"""The README's library section: its example runs as written, and the names
it documents are exactly what the package's top level exports."""

import re
from pathlib import Path

import hecke_kit

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text()
    start = text.index("## Library")
    return text[start:text.index("\n## ", start)]


def test_library_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert "overall: PASS" in capsys.readouterr().out


def test_library_names_are_the_top_level_exports():
    section = _library_section()
    imported = re.search(r"from hecke_kit import \((.*?)\)", section, re.S).group(1)
    names = {n.strip() for n in imported.split(",") if n.strip()}
    names |= set(re.findall(r"`(\w+)`", section))
    assert {"ParamSpec", "boxtimes", "run_suite", "__version__"} <= names
    assert names == set(hecke_kit.__all__)
    for name in names:
        assert getattr(hecke_kit, name) is not None
