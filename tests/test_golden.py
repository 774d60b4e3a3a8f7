"""Golden outputs: fixed sweeps must write the pinned files.

The exact-mode files under ``tests/golden/`` pin the ``godbersen`` (n=2 and
n=3), ``kl``, ``strange``, ``ckl`` (n=3) and ``planar`` sweep kinds byte for
byte.  A change that alters any byte of them changes exact results or their
serialization.

The float translation searches of ``gfr`` and ``godbersen-via-gfr`` (n=2)
are pinned within a tolerance instead: every record's ``pass`` and every
non-float field must match, and floats must agree within 1e-9 relative
(coordinates of ``x_star`` within 1e-9 absolute, the bodies having unit
volume).  Where the minimum over translations is attained on a whole set,
which happens at lambda = 1/4 <= 1/(n+1) and can at lambda = 1/2, the search
may end at another point of that set; ``x_star`` is then accepted when
the exact objective has the pinned value at both points and at their
midpoint.

After an intended change of output format, rewrite them with::

    PYTHONPATH=src python tests/test_golden.py
"""

import copy
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from godbersen_kit import harness
from godbersen_kit.harness import ExperimentConfig, run_experiment
from godbersen_kit.polytopes import scaled_reflected_join, translate, volume

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_CONFIGS = {
    "godbersen-n2": {"kind": "godbersen", "n": 2, "trials": 3, "seed": 11},
    "godbersen-n3": {"kind": "godbersen", "n": 3, "trials": 2, "seed": 12},
    "kl-n3": {"kind": "kl", "n": 3, "trials": 1, "seed": 13},
    "strange-n3": {"kind": "strange", "n": 3, "trials": 1, "seed": 14},
    "ckl-n3": {"kind": "ckl", "n": 3, "trials": 1, "seed": 15},
    "planar-n2": {"kind": "planar", "n": 2, "trials": 3, "seed": 16},
}
FLOAT_GOLDEN_CONFIGS = {
    "gfr-n2": {"kind": "gfr", "n": 2, "trials": 4, "seed": 21,
               "lambda_grid": ["1/4", "1/2"]},
    "godbersen-via-gfr-n2": {"kind": "godbersen-via-gfr", "n": 2, "trials": 4, "seed": 22},
}
REL_TOL = 1e-9


def _config(name, directory):
    if name in FLOAT_GOLDEN_CONFIGS:
        config = dict(FLOAT_GOLDEN_CONFIGS[name], mode="float")
    else:
        config = dict(GOLDEN_CONFIGS[name], mode="exact")
    return ExperimentConfig.from_json(dict(config, output_path=str(directory / name)))


def _run(name, directory):
    config = _config(name, directory)
    assert run_experiment(config) == 0
    return config


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_sweep_matches_golden_bytes(name, tmp_path):
    _run(name, tmp_path)
    for ext in (".jsonl", ".csv"):
        got = (tmp_path / (name + ext)).read_bytes()
        assert got == (GOLDEN_DIR / (name + ext)).read_bytes(), name + ext


def _assert_close(got, want, where):
    """Equal structure and non-float leaves; floats within REL_TOL."""
    if isinstance(want, float) or isinstance(got, float):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0), where
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], where + "." + key)
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, "%s[%d]" % (where, i))
    else:
        assert got == want, where


def _csv_value(cell):
    """A float for a CSV cell written from a float, else the cell itself."""
    try:
        value = float(cell)
    except ValueError:
        return cell
    return value if any(c in cell for c in ".eE") else cell


def _exact_objective(body, lam, x):
    shifted = translate(body, tuple(-Fraction(c) for c in x))
    return volume(scaled_reflected_join(shifted, Fraction(lam)))


def _assert_same_minimizer(config, got, want, where):
    """x_star within 1e-9, or another point of a flat minimum."""
    x, y = got["meta"].pop("x_star"), want["meta"].pop("x_star")
    if all(abs(a - b) <= REL_TOL for a, b in zip(x, y)):
        return
    body = harness._trial_body(config, want["trial"])
    mid = [(a + b) / 2 for a, b in zip(x, y)]
    for point in (x, y, mid):
        value = float(_exact_objective(body, want["lambda"], point))
        assert math.isclose(value, want["lhs"], rel_tol=REL_TOL), (where, point)


def test_same_minimizer_accepts_a_flat_minimum_only(tmp_path):
    # At lambda = 1/4 < 1/(n+1) the objective is flat on a neighbourhood
    # of the centroid, where the search stops: a point 0.01 away is
    # another minimizer, a point 0.5 away is not.
    config = _config("gfr-n2", tmp_path)
    want = json.loads((GOLDEN_DIR / "gfr-n2.jsonl").read_text().splitlines()[0])
    assert (want["check"], want["lambda"], config.n) == ("translation-search-bound", "1/4", 2)
    x, y = want["meta"]["x_star"]

    def moved(dx):
        got = copy.deepcopy(want)
        got["meta"]["x_star"] = [x + dx, y]
        return got

    _assert_same_minimizer(config, moved(0.01), copy.deepcopy(want), "near")
    with pytest.raises(AssertionError):
        _assert_same_minimizer(config, moved(0.5), copy.deepcopy(want), "far")


@pytest.mark.parametrize("name", sorted(FLOAT_GOLDEN_CONFIGS))
def test_float_search_sweep_matches_golden_within_tolerance(name, tmp_path):
    config = _run(name, tmp_path)
    got = (tmp_path / (name + ".jsonl")).read_text().splitlines()
    want = (GOLDEN_DIR / (name + ".jsonl")).read_text().splitlines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        g, w = json.loads(g), json.loads(w)
        where = "%s.jsonl:%d" % (name, i + 1)
        assert g["pass"] is w["pass"], where
        if w["check"] == "translation-search-bound":
            _assert_same_minimizer(config, g, w, where)
        _assert_close(g, w, where)
    got = (tmp_path / (name + ".csv")).read_text().splitlines()
    want = (GOLDEN_DIR / (name + ".csv")).read_text().splitlines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        cells = list(zip(g.split(","), w.split(",")))
        assert len(cells) == len(w.split(","))
        for g_cell, w_cell in cells:
            _assert_close(_csv_value(g_cell), _csv_value(w_cell), "%s.csv:%d" % (name, i + 1))


if __name__ == "__main__":
    for golden in list(GOLDEN_CONFIGS) + list(FLOAT_GOLDEN_CONFIGS):
        _run(golden, GOLDEN_DIR)
