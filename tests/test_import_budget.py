"""What ``import repro`` loads: the sandbox child pays it on every job.

scipy is needed only by :meth:`repro.engine.MeanFieldSystem.integrate`,
which imports it on call (``tests/test_meanfield.py`` covers that path),
so neither the package nor the sandbox child module may load it.  Nor
may compiling a closed transition table load ``numpy.ma``.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

_PROBE = """
import json, sys
import repro
import repro.service.sandbox
print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))
"""


def _probe(code):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout)


def test_repro_and_the_sandbox_child_import_no_scipy():
    assert _probe(_PROBE) == []


_MA_PROBE = """
import json, sys
import numpy
if 'numpy.ma' in sys.modules:
    print(json.dumps(None))
else:
    from repro.engine.compiled import compile_table
    from repro.workloads import WORKLOADS
    protocol, population, _ = WORKLOADS["clock"](n=1000)
    table = compile_table(protocol, sorted(population.counts), cache=None)
    print(json.dumps([table.num_states, 'numpy.ma' in sys.modules]))
"""


def test_compiling_a_closed_table_loads_no_numpy_ma():
    """A cold set-up child compiles its table: ``numpy.ma`` (which plain
    ``np.unique`` imports lazily in numpy 2.x) would cost it ~15 ms."""
    result = _probe(_MA_PROBE)
    if result is None:
        pytest.skip("import numpy alone loads numpy.ma (numpy 1.x)")
    assert result == [168, False]
