"""The README's library example runs and gives the values its comments
state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    """The ``python`` block under ``## Library``."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_gives_its_commented_values():
    """Each expression line whose comment opens with a value, such as
    ``q.w.dim()  # 2, the relative-position cone``, evaluates to it."""
    source = _library_example()
    namespace: dict = {}
    exec(compile(source, str(README), "exec"), namespace)
    claims = {}
    for line in source.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        try:
            ast.parse(code, mode="eval")
        except SyntaxError:
            continue  # a statement, or no code
        if comment:
            claims[code] = ast.literal_eval(comment.split(",")[0].strip())
    assert claims == {
        "q.w.dim()": 2,
        "q.disc.disc.dim()": 2,
        "verdict.accepted": True,
        "multiplicity(q)": 3,
    }
    for expr, value in claims.items():
        assert eval(expr, namespace) == value, expr
