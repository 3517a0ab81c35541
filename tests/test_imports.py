"""The package imports numpy and nothing heavier.

scipy once came in for a single batched triangular solve, and doubled the
import time and memory of every command. The check runs in a fresh
interpreter, so modules that other tests or plugins loaded do not count.
"""

import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = (
    "import sys; import spdalign, spdalign.cli; "
    "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
)


def test_package_and_cli_import_without_scipy():
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(_SRC)!r}); {_PROBE}"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"
