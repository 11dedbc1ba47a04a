"""Package-level checks: the public names resolve, and the runtime needs
numpy and the standard library only."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import floquet_ising


def test_public_names_resolve():
    for name in floquet_ising.__all__:
        assert getattr(floquet_ising, name) is not None, name


def test_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes every import of scipy raise ImportError
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        from floquet_ising import cli
        assert cli.main(["quasi", "-N", "5", "-o", {str(tmp_path / "quasi")!r}]) == 0
        assert cli.main(["sweep", "--diag", "kappa-j", "-N", "4", "--h-count", "2", "--j-count", "2",
                         "--workers", "1", "-o", {str(tmp_path / "sweep")!r}]) == 0
    """)
    src = str(Path(floquet_ising.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
