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
_DIGEST = re.compile(r"^(eval/(stdout|eval_report\.csv)|roundtrip/(tanh|linear)/model\.bin"
                     r"|metrics/(stdout|metrics\.csv|breakdown\.csv)"
                     r"|metrics/(written|reordered|wide)/stdout) [0-9a-f]{64}$")
_BENCH_ARGS = re.compile(r"^bench/(frobenius|jbld|airm)/args kind=\1 d=256 n=20 nstar=3 reps=3$")
_BENCH_VALUE = re.compile(r"^bench/(frobenius|jbld|airm)/(naive|projected) value=(\S+)$")
_ADAPTER = re.compile(r"^adapter/(nystrom_map|isometric_project/(source|target|projector))"
                      r" [0-9a-f]{64}$")
_SYNTH = re.compile(r"^synth/d=(1|2)/(source|target_train|target_test) [0-9a-f]{64}$")
_OBJECTIVE = re.compile(r"^objective/(frobenius|jbld|airm)/(value|grads) [0-9a-f]{64}$")
_VALUE = re.compile(r"^(gradcheck|invariance|shift)/\S+ (\S+)$")


def test_one_line_per_kept_output():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(_SCRIPT), "--steps", "3"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # 12 trainings x 3 files, 2 eval, 2 round-trip and 6 metrics outputs, 3 bench kinds
    # x 3 fields, 4 adapter outputs, 2 synthetic specs x 3 blocks, 3 objective kinds x 2
    # outputs, 13 gradient and 11 invariance components, 4 benchmark means.
    assert len(lines) == 36 + 10 + 9 + 4 + 6 + 6 + 13 + 11 + 4
    train, outputs, bench = lines[:36], lines[36:46], lines[46:55]
    adapters, synth, objective, rest = lines[55:59], lines[59:65], lines[65:71], lines[71:]
    assert all(_TRAIN.match(line) for line in train)
    assert len({line.split()[0] for line in train}) == 36
    assert [_DIGEST.match(line).group(1) for line in outputs] == [
        "eval/stdout", "eval/eval_report.csv", "roundtrip/tanh/model.bin",
        "roundtrip/linear/model.bin", "metrics/stdout", "metrics/metrics.csv",
        "metrics/breakdown.csv", "metrics/written/stdout", "metrics/reordered/stdout",
        "metrics/wide/stdout"]
    # A dump read and written again keeps its bytes.
    digests = dict(line.split() for line in train + outputs)
    for encoder in ("tanh", "linear"):
        assert digests[f"roundtrip/{encoder}/model.bin"] == digests[f"train/jbld/tau=none/{encoder}/model.bin"]
    # The reordered and wide files keep the id equalities of the written one.
    assert outputs[7].split()[1] == outputs[8].split()[1] == outputs[9].split()[1]
    for i, kind in enumerate(("frobenius", "jbld", "airm")):
        args, naive, projected = bench[3 * i:3 * i + 3]
        assert _BENCH_ARGS.match(args).group(1) == kind
        values = [_BENCH_VALUE.match(line).group(1, 2, 3) for line in (naive, projected)]
        assert [v[:2] for v in values] == [(kind, "naive"), (kind, "projected")]
        assert all(float(v[2]) > 0 for v in values)
    assert [_ADAPTER.match(line).group(1) for line in adapters] == [
        "nystrom_map", "isometric_project/source", "isometric_project/target",
        "isometric_project/projector"]
    assert [_SYNTH.match(line).group(1, 2) for line in synth] == [
        (dim, split) for dim in ("1", "2") for split in ("source", "target_train", "target_test")]
    assert [_OBJECTIVE.match(line).group(1, 2) for line in objective] == [
        (kind, output) for kind in ("frobenius", "jbld", "airm") for output in ("value", "grads")]
    values = [_VALUE.match(line) for line in rest]
    assert all(values)
    assert [m.group(1) for m in values] == ["gradcheck"] * 13 + ["invariance"] * 11 + ["shift"] * 4
    for match in values:
        float(match.group(2))
