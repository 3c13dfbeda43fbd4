import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_importing_the_newton_solver_loads_no_file_io():
    """The package root re-exports nothing, so ``polyproj.bap`` loads only its own imports."""
    code = (
        "import sys\n"
        "import polyproj.bap\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "                      if m.split('.')[0] == 'polyproj' or m.startswith('scipy.io'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["polyproj", "polyproj.bap", "polyproj.sparse_linalg"]
