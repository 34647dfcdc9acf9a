"""What ``import repro`` loads: the sandbox child pays it on every job.

scipy is needed only by :meth:`repro.engine.MeanFieldSystem.integrate`,
which imports it on call (``tests/test_meanfield.py`` covers that path),
so neither the package nor the sandbox child module may load it.
"""

import json
import os
import subprocess
import sys

import repro

_PROBE = """
import json, sys
import repro
import repro.service.sandbox
print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))
"""


def test_repro_and_the_sandbox_child_import_no_scipy():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert json.loads(out.stdout) == []
