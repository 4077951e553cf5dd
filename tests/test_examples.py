"""Every script in ``examples/`` runs to completion.

The examples are the documented entry points of the library; a renamed or
deleted public name they import would otherwise only surface when a reader
runs one.  Each script runs in its own interpreter with ``PYTHONPATH=src``
(the package is not installed), from a scratch working directory so
nothing it writes lands in the checkout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))

#: Generous per-script bound: together they take about 5 s on a 2-core box.
TIMEOUT_SECONDS = 60


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.name for path in EXAMPLES])
def test_example_runs(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_SECONDS,
        check=False,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]


def test_the_examples_directory_is_not_empty():
    assert EXAMPLES, "no examples/*.py found; the parametrised test above ran nothing"
