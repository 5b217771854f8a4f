"""README.md's examples run as written.

Each fenced ``python`` block is executed on its own, in a fresh namespace,
so an API change that breaks the documented usage fails here.  Two of the
``dla-lab`` examples run through ``cli.main`` and must print what the
README shows.
"""

import json
import re
from pathlib import Path

import pytest

from dla_lab.cli import main

README = Path(__file__).parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
#: command after ``$ dla-lab`` -> the output the README shows for it
SHELL = dict(re.findall(r"^```sh\n\$ dla-lab (.*?)\n(.*?)^```", TEXT, re.M | re.S))


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_readme_compute_example_matches_but_for_runtime(capsys):
    command = "compute --graph cycle:6"
    assert main(command.split()) == 0
    got, want = json.loads(capsys.readouterr().out), json.loads(SHELL[command])
    del got["runtime_ms"], want["runtime_ms"]
    assert list(got.items()) == list(want.items())


def test_readme_verify_cycle_example_matches_exactly(capsys):
    command = "verify-cycle --n 5 --output text"
    assert main(command.split()) == 0
    assert capsys.readouterr().out == SHELL[command]
