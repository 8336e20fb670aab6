import os
import re
import subprocess
import sys
from pathlib import Path

import dualsynth

README = Path(__file__).resolve().parent.parent / "README.md"


def library_tour() -> str:
    """The Python block under the README's "Library tour" heading."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"## Library tour\s+```python\n(.*?)```", text,
                     re.DOTALL).group(1)


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


def test_readme_library_tour_runs():
    namespace: dict = {}
    exec(library_tour(), namespace)
    assert namespace["verdict"].outcome == "realizable"
    assert len(namespace["execution"].steps) == 6
