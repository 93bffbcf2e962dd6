import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _run_example(code):
    # the comments on its print lines, and what the example prints
    stated = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    return stated, out.getvalue().splitlines()


def _examples():
    text = README.read_text()
    return re.findall(r"```python\n(.*?)```", text[text.index("## Library use") :], re.S)


def test_library_use_example_prints_what_its_comments_state():
    stated, printed = _run_example(_examples()[0])
    assert stated == ["(5001,) (501, 4, 4)", "Jacobimorphism", "Jacobimorphism"]
    assert printed == stated


def test_finite_difference_opt_in_example_prints_what_its_comments_state():
    (code,) = [c for c in _examples() if "numeric_jacobian" in c]
    stated, printed = _run_example(code)
    assert stated == ["Jacobimorphism"]
    assert printed == stated
