"""Importing the package and the server CLI must not load the scipy
modules that only the model solvers and fit statistics use, nor the
paper toolkit; the lazy ``repro`` namespace still serves every public
name."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

DEFERRED = ("scipy.stats", "scipy.optimize")


def test_server_import_leaves_heavy_scipy_unloaded():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys, repro, repro.service.cli\n"
        f"print(sorted(m for m in {DEFERRED!r} if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


HEAVY = ("scipy", "repro.experiments", "repro.runtime", "repro.bench")


def _fresh(code, *args, no_db_env=True):
    """Run ``code`` with ``args`` in a new interpreter over this source
    tree (with ``REPRO_NO_DB`` set unless ``no_db_env`` is false); its
    stdout, stripped."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_NO_DB", None)
    if no_db_env:
        env["REPRO_NO_DB"] = "1"
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True,
        text=True, check=True,
    )
    return result.stdout.strip()


_LOADED = (
    "print(sorted(m for m in sys.modules "
    f"if m.split('.')[0] == 'scipy' or m.startswith({HEAVY!r})))\n"
)


def test_server_import_loads_no_paper_toolkit():
    assert _fresh("import sys, repro, repro.service.cli\n" + _LOADED) == "[]"


def test_serve_help_loads_no_paper_toolkit():
    code = (
        "import runpy, sys\n"
        "sys.argv = ['repro', 'serve', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (0, None), exc.code\n"
        "print('---')\n" + _LOADED
    )
    usage, loaded = _fresh(code).rsplit("---", 1)
    assert "start" in usage
    assert loaded.strip() == "[]"


#: The model modules the drift monitor samples, and the ones it must
#: not load.
SERVED_CORE = ("repro.core.fagin", "repro.core.planning")
UNSERVED_CORE = (
    "repro.core.aging", "repro.core.density_model", "repro.core.phasing",
    "repro.core.pmr_model", "repro.core.sensitivity",
)

_SERVED_MODULES = (
    "print(sorted(m for m in sys.modules if m == 'repro.rundb' "
    f"or m in {SERVED_CORE + UNSERVED_CORE!r}))\n"
)


def test_monitor_loads_only_the_model_it_samples():
    code = "import sys, repro.service.monitor\n" + _SERVED_MODULES
    assert _fresh(code) == repr(sorted(SERVED_CORE))


@pytest.mark.parametrize("flag", [True, False], ids=["no-db", "env"])
def test_serve_start_without_db_loads_no_run_database(tmp_path, flag):
    # start the server on a fresh file, shut it down once it listens,
    # then list what the start loaded
    code = (
        "import sys\n"
        "from repro.service import cli, server\n"
        "start = server.SpatialIndexServer.start\n"
        "async def start_then_stop(self):\n"
        "    await start(self)\n"
        "    self.request_shutdown()\n"
        "server.SpatialIndexServer.start = start_then_stop\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print('---')\n" + _SERVED_MODULES
    )
    args = ["start", str(tmp_path / "s.pf"), "--port", "0", "--no-trace"]
    if flag:
        args.append("--no-db")
    out = _fresh(code, *args, no_db_env=not flag)
    assert "serving" in out
    assert out.rsplit("---", 1)[1].strip() == repr(sorted(SERVED_CORE))


#: Modules only the paper toolkit, the query kernels and the load
#: generator use.
UNSERVED = (
    "repro.quadtree.pr", "repro.quadtree.pmr", "repro.service.loadgen",
    "repro.kernels.queries", "repro.workloads.churn",
    "repro.workloads.queries",
)


def test_serve_start_loads_no_tree_or_load_generator(tmp_path):
    code = (
        "import sys\n"
        "from repro.service import cli, server\n"
        "start = server.SpatialIndexServer.start\n"
        "async def start_then_stop(self):\n"
        "    await start(self)\n"
        "    self.request_shutdown()\n"
        "server.SpatialIndexServer.start = start_then_stop\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print('---')\n"
        f"print(sorted(m for m in {UNSERVED!r} if m in sys.modules))\n"
    )
    out = _fresh(
        code, "start", str(tmp_path / "s.pf"), "--port", "0", "--no-trace",
        "--no-db", "--preload", "100",
    )
    assert "serving" in out
    assert out.rsplit("---", 1)[1].strip() == "[]"


def test_model_functions_import_gammaln_on_first_use():
    # the exact model in a process that never loaded scipy.special
    # gives the same bits as in this one, where it may be loaded
    from repro.core.fagin import expected_total_leaves

    code = (
        "import sys\n"
        "from repro.core.fagin import expected_total_leaves\n"
        "assert 'scipy.special' not in sys.modules\n"
        "v = expected_total_leaves(50000, 4, buckets=4, model='exact')\n"
        "assert 'scipy.special' in sys.modules\n"
        "print(v.hex())\n"
    )
    eager = expected_total_leaves(50000, 4, buckets=4, model="exact")
    assert _fresh(code) == eager.hex() == "0x1.96e53e3a113d8p+14"


def test_gammaln_is_bound_to_the_ufunc_after_first_call():
    from scipy.special import gammaln as ufunc

    from repro.core import fagin

    fagin.expected_total_leaves(100, 4)
    assert fagin.gammaln is ufunc


@pytest.mark.parametrize("package", [
    "repro.kernels", "repro.quadtree", "repro.service", "repro.workloads",
])
def test_lazy_subpackage_resolves_every_name(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        home = importlib.import_module(f"{package}.{module._HOME[name]}")
        assert getattr(module, name) is getattr(home, name), name


class TestPublicNamespace:
    def test_every_name_resolves_to_its_home_module(self):
        for name in repro.__all__:
            home = importlib.import_module(f"repro.{repro._HOME[name]}")
            assert getattr(repro, name) is getattr(home, name), name

    def test_dir_lists_every_name(self):
        listed = dir(repro)
        assert set(repro.__all__) <= set(listed)
        assert "__version__" in listed

    def test_no_name_is_listed_under_two_submodules(self):
        listed = sum(len(v) for v in repro._SUBMODULE_NAMES.values())
        assert listed == len(repro.__all__)

    def test_first_read_caches_the_name(self):
        value = repro.UniformPoints
        assert vars(repro)["UniformPoints"] is value

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
        assert not hasattr(repro, "no_such_name")

    def test_star_import_binds_every_name(self):
        # in a fresh process, so every name goes through __getattr__
        code = (
            "import importlib, repro\n"
            "ns = {}\n"
            "exec('from repro import *', ns)\n"
            "print(sorted(\n"
            "    n for n in repro.__all__\n"
            "    if ns.get(n) is not getattr(\n"
            "        importlib.import_module('repro.' + repro._HOME[n]), n)\n"
            "))\n"
        )
        assert _fresh(code) == "[]"
