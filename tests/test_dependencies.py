"""qmlab runs on numpy alone: importing it loads no scipy module."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_qmlab_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import json, sys, qmlab; print(json.dumps(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert json.loads(out.stdout) == []
