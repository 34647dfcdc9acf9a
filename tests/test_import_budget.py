"""What ``import repro`` loads, and what the service process boots with.

scipy is needed only by :meth:`repro.engine.MeanFieldSystem.integrate`,
which imports it on call (``tests/test_meanfield.py`` covers that path),
so neither the package nor the zygote and its job entry may load it.  Nor
may compiling a closed transition table or running a bghkpu replica load
``numpy.ma``: every forked job child would pay its import again.
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
import repro.zygote
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
    table = compile_table(protocol, sorted(population.counts))
    print(json.dumps([table.num_states, 'numpy.ma' in sys.modules]))
"""


def test_compiling_a_closed_table_loads_no_numpy_ma():
    """A cold set-up child compiles its table: ``numpy.ma`` (which plain
    ``np.unique`` imports lazily in numpy 2.x) would cost it ~15 ms."""
    result = _probe(_MA_PROBE)
    if result is None:
        pytest.skip("import numpy alone loads numpy.ma (numpy 1.x)")
    assert result == [168, False]


_REPLICA_MA_PROBE = """
import json, sys
import numpy
if 'numpy.ma' in sys.modules:
    print(json.dumps(None))
else:
    from repro import EngineConfig, build_workload, run_replicas
    loaded = []
    for name, n in (("leader", 10 ** 8), ("clock", 10 ** 4)):
        workload = build_workload(name, n=n)
        run_replicas(
            workload.protocol, workload.population, replicas=1,
            config=EngineConfig(engine="bghkpu"), seed=3, processes=1,
            stop=workload.stop,
        )
        loaded.append('numpy.ma' in sys.modules)
    print(json.dumps(loaded))
"""


def test_bghkpu_replicas_load_no_numpy_ma():
    """The sticky-support union and the outcome split's width groups:
    ``np.union1d`` and a plain ``np.unique`` both import ``numpy.ma``."""
    result = _probe(_REPLICA_MA_PROBE)
    if result is None:
        pytest.skip("import numpy alone loads numpy.ma (numpy 1.x)")
    assert result == [False, False]


_ZYGOTE_PROBE = """
import json, sys
from repro.zygote import _preload

_preload()
before = set(sys.modules)
from repro.engine.compiled import compile_table
from repro.workloads import WORKLOADS

states = []
for name in ("epidemic", "clock"):
    protocol, population, stop = WORKLOADS[name](n=100)
    states.append(compile_table(protocol, population.counts).num_states)
    stop(population)
print(json.dumps([states, sorted(set(sys.modules) - before)]))
"""


def test_a_zygote_child_compiles_a_table_without_importing():
    """A child forked from the zygote builds its workload, compiles its
    closed table and evaluates its stop predicate without importing a
    module."""
    assert _probe(_ZYGOTE_PROBE) == [[2, 168], []]


_SERVER_PROBE = """
import json, sys
import repro
from repro.__main__ import build_parser
from repro.service.app import ServiceApp

build_parser().parse_args(["serve", "--store", sys.argv[1]])
app = ServiceApp(sys.argv[1], workers=1)
app.jobs.shutdown()
print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')))
"""


def test_the_service_boots_without_numpy(tmp_path):
    """``repro serve`` answers ``/healthz`` before any job: its boot must
    not pay numpy's import (the job children are forked pre-loaded)."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _SERVER_PROBE, str(tmp_path / "runs")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(out.stdout) == []


_LAZY_PROBE = """
import json, sys, types
import repro.simulate
import repro
from repro import simulate
print(json.dumps([
    isinstance(simulate, types.FunctionType),
    isinstance(repro.engine, types.ModuleType),
    all(getattr(repro, name) is not None for name in repro.__all__),
    repro.EngineConfig is repro.engine.config.EngineConfig,
]))
"""


def test_lazy_names_resolve_like_an_eager_import():
    """``repro.simulate`` stays the function even when its submodule was
    imported first; submodules and every public name resolve."""
    assert _probe(_LAZY_PROBE) == [True, True, True, True]


def test_import_repro_loads_no_numpy():
    assert _probe(
        "import json, sys, repro; print(json.dumps('numpy' in sys.modules))"
    ) is False
