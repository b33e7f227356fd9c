"""Every demo script runs to completion against the current package, and
every README transcript is what its command prints."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rec_persist.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# (argv, stdout) of each README block that starts with "$ rec-persist": the
# command runs to the first newline not escaped by a backslash, and the rest
# of the block is its output
TRANSCRIPTS = [
    (command.split()[2:], output)
    for command, _, output in (
        block.replace("\\\n", "").partition("\n")
        for block in re.findall(
            r"^```\n(\$ rec-persist .*?)^```$",
            (ROOT / "README.md").read_text(), re.M | re.S,
        )
    )
]


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run a copy, so a demo that writes next to itself writes into tmp_path;
    # -W error, as the tests' own filter does not reach a subprocess
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize(
    "argv, output", TRANSCRIPTS, ids=[argv[0] for argv, _ in TRANSCRIPTS]
)
def test_readme_transcript(argv, output, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == output
