import importlib
import os
import pkgutil
import subprocess
import sys

import polyproj

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _modules_after_importing(module: str) -> list[str]:
    """Every module a fresh interpreter has loaded after ``import module``."""
    code = f"import sys\nimport {module}\nprint(' '.join(sys.modules))\n"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_importing_the_newton_solver_loads_no_file_io():
    """The package root re-exports nothing, so ``polyproj.bap`` loads only its own imports."""
    loaded = _modules_after_importing("polyproj.bap")
    assert sorted(m for m in loaded if m.split(".")[0] == "polyproj" or m.startswith("scipy.io")) == [
        "polyproj", "polyproj.bap", "polyproj.sparse_linalg"]


def test_importing_the_factory_loads_no_scipy_optimize():
    """The benchmark imports ``polyproj.factory`` for afiro's reference
    optimum; ``scipy.optimize`` would add about 16 MB to its peak RSS
    and about 0.2 s to its set-up time."""
    loaded = _modules_after_importing("polyproj.factory")
    assert "polyproj.factory" in loaded
    assert [m for m in loaded if m.startswith("scipy.optimize")] == []


def test_every_exported_name_resolves():
    """Each name in a module's ``__all__`` is an attribute of that module,
    so deleting a definition also deletes its export."""
    missing = []
    for info in pkgutil.iter_modules(polyproj.__path__, "polyproj."):
        module = importlib.import_module(info.name)
        missing += [(info.name, name) for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []
