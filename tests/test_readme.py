"""The README's library example runs as written against the public package,
and its command-line notes match the package."""

from __future__ import annotations

import re
from pathlib import Path

from caputo_lk.verify import _CHECKS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_states_the_invariant_count():
    stated = re.findall(r"seeded self-checks \((\d+) invariants", README.read_text(encoding="utf-8"))
    assert stated == [str(len(_CHECKS))]
