"""The end-to-end benchmark's hooks still find every entry point they wrap.

``perfbench/child.py`` attributes time per layer by replacing program
functions *by name* (``pipeline.route_stage``, ``ConstraintChecker.check``,
...).  A renamed or deleted entry point makes every cell of a benchmark run
fail; installing the hooks here turns that into a failing test instead.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

INSTALL_HOOKS = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import child
child.install_layers(child.LayerTrace())
child.Boundary().install()
"""


def test_layer_wrappers_and_boundary_hooks_install():
    script = INSTALL_HOOKS.format(
        src=str(REPO_ROOT / "src"), perfbench=str(REPO_ROOT / "perfbench")
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
