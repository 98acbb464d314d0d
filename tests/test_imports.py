"""Runtime dependencies: the HTTP clients send over the standard library and
decode replies with orjson, which only a run that decodes a reply loads;
nothing, the loss-model fit included, loads SciPy; every exported name
resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import vps

SRC = Path(vps.__file__).resolve().parent.parent


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout; its stdout."""
    path = os.pathsep.join([str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout


def test_importing_vps_does_not_import_requests():
    code = (
        "import sys, vps, vps.cli, vps.backends.wire, vps.metrics\n"
        "print(sorted(m for m in sys.modules if m == 'requests' or m.startswith('requests.')))\n"
    )
    assert run_fresh(code).strip() == "[]"


def test_no_command_or_fit_loads_scipy(tmp_path):
    losses = tmp_path / "losses.csv"
    losses.write_text("J,loss\n1,1.5\n2,1.25\n4,1.125\n")
    code = (
        "import sys\n"
        "import vps, vps.cli, vps.decode_engine, vps.eval_harness, vps.scaling_law\n"
        "import vps.backends.toyworld, vps.backends.wire\n"
        "assert vps.cli.main(['simulate', '--samples', '2000', '--streams', '1,2']) == 0\n"
        "fit = vps.scaling_law.fit_params([1, 2, 4], [1.5, 1.25, 1.125], fixed={'correlation': 0.0})\n"
        "assert fit.cost < 1e-20, fit.cost\n"
        "ns = [1e6, 1e7, 1e8, 1e9]\n"
        "fit = vps.scaling_law.fit_params(ns, [1.7 + 400 / n**0.42 for n in ns], mode='model_size')\n"
        "assert fit.cost < 1e-20, fit.cost\n"
        f"assert vps.cli.main(['fit', '--input', {str(losses)!r}, '--fix', 'irreducible_entropy=1']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert run_fresh(code).splitlines()[-1] == "[]"


def test_only_a_decoded_reply_loads_orjson(tmp_path):
    tests = Path(__file__).resolve().parent
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(tests)!r})\n"
        "import vps, vps.cli, vps.metrics, vps.backends.wire\n"
        f"assert vps.cli.main(['run', '--backend', 'toy', '--toy-episodes', '4', '--methods', 'baseline,vps:2',"
        f" '--out-dir', {str(tmp_path / 'toy')!r}]) == 0\n"
        "assert vps.cli.main(['simulate', '--samples', '2000', '--streams', '1,2']) == 0\n"
        "print('orjson' in sys.modules)\n"
        "from stub_server import StubServer\n"
        "from vps.backends import ScoreRequest\n"
        "from vps.backends.wire import WireBackend, WireConfig\n"
        "with StubServer(score_handler=lambda body: {'vocab_size': 2, 'scores': [0.0, 1.0]}) as server:\n"
        "    WireBackend(WireConfig(server.url)).score_response(ScoreRequest('vid', (0,), 'identity', 'p', ()))\n"
        "print('orjson' in sys.modules)\n"
    )
    lines = run_fresh(code).splitlines()
    assert lines[-2:] == ["False", "True"]


def test_every_exported_name_resolves():
    names = [info.name for info in pkgutil.walk_packages(vps.__path__, "vps.")]
    assert "vps.backends.wire" in names
    for name in ["vps", *names]:
        module = importlib.import_module(name)
        missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
        assert not missing, f"{name}.__all__ names {missing}, which it does not define"
