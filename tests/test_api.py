"""The package's public surface: its export list and the README example."""
import re
from pathlib import Path

from numpy.testing import assert_allclose

import kingflow

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves_once():
    names = kingflow.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(kingflow, name)]
    assert missing == []


def test_readme_quick_start_runs_and_reaches_the_targets():
    section = README.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert_allclose(namespace["final"].points.mean(axis=0), [3.0, 3.0], atol=0.15)
