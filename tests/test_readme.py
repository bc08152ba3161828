import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _python_block(section: str) -> str:
    """The first ```python block under the README heading ``section``."""
    text = (ROOT / "README.md").read_text()
    body = text[text.index(f"## {section}\n"):]
    start = body.index("```python\n") + len("```python\n")
    return body[start:body.index("```", start)]


def test_library_quick_start_runs():
    # the README's example is run as written, so it cannot fall behind the API
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _python_block("Library quick start")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("-1.0204") and lines[1].startswith("-5.5555")
    assert lines[3].startswith("3.3333")
