import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_prints_what_its_comments_state():
    text = README.read_text()
    section = text[text.index("## Library use") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    stated = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert stated == ["(5001,) (501, 4, 4)", "Jacobimorphism", "Jacobimorphism"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == stated
