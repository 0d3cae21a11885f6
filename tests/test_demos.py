"""The demo scripts and the README's examples must stay runnable, against
the installed package as well as the source tree."""

import contextlib
import io
import pathlib
import re
import subprocess
import sys
import types

import pytest

import supersolve

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
README = pathlib.Path(__file__).parent.parent / "README.md"


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


def test_readme_examples_print_their_comments():
    # the python blocks run in order in one namespace, and each
    # `print(...)  # expected` line must print its comment
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        assert out.getvalue().splitlines() == re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)


def test_solver_does_not_load_malcev():
    # the solvers need no Mal'cev term: the paper's normalization through
    # one is a test oracle, in tests/oracles.py
    code = "import sys, supersolve.solver; assert 'supersolve.malcev' not in sys.modules"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
