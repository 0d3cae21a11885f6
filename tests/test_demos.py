"""The demo scripts must stay runnable."""

import pathlib
import subprocess
import sys
import types

import pytest

import supersolve

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_top_level_surface_is_the_quick_start():
    # the demos and the README import everything else from its own module
    names = {
        name for name, value in vars(supersolve).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == set(supersolve.__all__) == {"parse_system", "solve_bounded", "solve_brute"}
    assert supersolve.__version__ == "0.1.0"
