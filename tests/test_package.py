import os
import subprocess
import sys
from pathlib import Path

import dualsynth


def test_every_exported_name_resolves():
    missing = [name for name in dualsynth.__all__
               if not hasattr(dualsynth, name)]
    assert not missing


def test_star_import():
    namespace: dict = {}
    exec("from dualsynth import *", namespace)
    assert set(dualsynth.__all__) <= set(namespace)


def test_python_dash_m_runs_the_cli():
    src = str(Path(dualsynth.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "dualsynth", "--help"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert "synthesize" in done.stdout
