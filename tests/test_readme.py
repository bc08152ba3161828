import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from abcoulomb import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _block(section: str, language: str) -> str:
    """The first ```language block under the README heading ``section``."""
    text = (ROOT / "README.md").read_text()
    body = text[text.index(f"## {section}\n"):]
    start = body.index(f"```{language}\n") + len(f"```{language}\n")
    return body[start:body.index("```", start)]


# the CLI examples but verify's, which tests/test_acceptance.py runs
CLI_EXAMPLES = [shlex.split(line, comments=True)[1:] for line in _block("CLI", "sh").splitlines()
                if line.startswith("abcoulomb ") and not line.startswith("abcoulomb verify")]


def test_library_quick_start_runs():
    # the README's example is run as written, so it cannot fall behind the API
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _block("Library quick start", "python")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("-1.0204") and lines[1].startswith("-5.5555")
    assert lines[3].startswith("3.3333")


def _example_id(index: int) -> str:
    """The command of the example, numbered from its second example on."""
    command = CLI_EXAMPLES[index][0]
    earlier = [argv[0] for argv in CLI_EXAMPLES[:index]].count(command)
    return f"{command}-{earlier + 1}" if earlier else command


@pytest.mark.parametrize("argv", CLI_EXAMPLES, ids=map(_example_id, range(len(CLI_EXAMPLES))))
def test_cli_example_runs(tmp_path, argv):
    # as written, with the output sent to a temporary file
    if "--out" in argv:
        argv = argv[:argv.index("--out")] + argv[argv.index("--out") + 2:]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out").read_text()
