"""Golden outputs: fixed exact-mode sweeps must write byte-identical files.

The files under ``tests/golden/`` pin the ``godbersen`` (n=2 and n=3),
``kl``, ``strange``, ``ckl`` (n=3) and ``planar`` sweep kinds.  A change
that alters any byte of them changes exact results or their serialization.
After an intended change of output format, rewrite them with::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from godbersen_kit.harness import ExperimentConfig, run_experiment

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_CONFIGS = {
    "godbersen-n2": {"kind": "godbersen", "n": 2, "trials": 3, "seed": 11},
    "godbersen-n3": {"kind": "godbersen", "n": 3, "trials": 2, "seed": 12},
    "kl-n3": {"kind": "kl", "n": 3, "trials": 1, "seed": 13},
    "strange-n3": {"kind": "strange", "n": 3, "trials": 1, "seed": 14},
    "ckl-n3": {"kind": "ckl", "n": 3, "trials": 1, "seed": 15},
    "planar-n2": {"kind": "planar", "n": 2, "trials": 3, "seed": 16},
}


def _run(name, directory):
    config = dict(GOLDEN_CONFIGS[name], mode="exact", output_path=str(directory / name))
    assert run_experiment(ExperimentConfig.from_json(config)) == 0


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_sweep_matches_golden_bytes(name, tmp_path):
    _run(name, tmp_path)
    for ext in (".jsonl", ".csv"):
        got = (tmp_path / (name + ext)).read_bytes()
        assert got == (GOLDEN_DIR / (name + ext)).read_bytes(), name + ext


if __name__ == "__main__":
    for golden in GOLDEN_CONFIGS:
        _run(golden, GOLDEN_DIR)
