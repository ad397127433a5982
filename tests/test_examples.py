"""Every script under ``examples/`` runs to completion.

Each script runs in its own interpreter with deprecation warnings
turned into errors, so an example that imports a removed or deprecated
name fails here instead of in a reader's terminal.  Scripts run from a
scratch directory with ``TMPDIR`` pointed there too.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               TMPDIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
