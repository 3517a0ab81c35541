"""The output-digest script that no-change refactors diff between two checkouts."""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
_SCRIPT = REPO_ROOT / "scripts" / "output_digests.py"

_TRAIN = re.compile(r"^train/(frobenius|jbld|airm)/tau=(none|3\.5)/(tanh|linear)/"
                    r"(model\.bin|loss_history\.csv|eval_report\.csv) [0-9a-f]{64}$")
_VALUE = re.compile(r"^(gradcheck|invariance|shift)/\S+ (\S+)$")


def test_one_line_per_kept_output():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(_SCRIPT), "--steps", "3"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # 12 trainings x 3 files, 13 gradient and 11 invariance components, 4 benchmark means.
    assert len(lines) == 36 + 13 + 11 + 4
    assert all(_TRAIN.match(line) for line in lines[:36])
    assert len({line.split()[0] for line in lines[:36]}) == 36
    values = [_VALUE.match(line) for line in lines[36:]]
    assert all(values)
    assert [m.group(1) for m in values] == ["gradcheck"] * 13 + ["invariance"] * 11 + ["shift"] * 4
    for match in values:
        float(match.group(2))
