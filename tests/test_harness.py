"""Harness tests: seeded bodies, translation search, experiment runs, CLI."""

import dataclasses
import json
import os
import random
import importlib.util
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import godbersen_kit.functional as functional
import godbersen_kit.harness as harness
import godbersen_kit.mixed as mixed
from godbersen_kit.cli import main
from godbersen_kit.errors import DegenerateInput
from godbersen_kit.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    FLAVORS,
    join_volume_and_subgradient,
    minimize_over_translation,
    random_polytope,
    run_experiment,
    run_trial,
)
from godbersen_kit.polytopes import (
    centered_simplex,
    centroid,
    contains_point,
    convex_hull,
    cube,
    polytope_from_json,
    polytope_to_json,
    scaled_reflected_join,
    translate,
    volume,
)
from godbersen_kit.reports import CheckReport
from godbersen_kit.scalars import EXACT, FLOAT, rational, read_exact
from godbersen_kit.simplexes import simplex_hull_ratio


# ---------------------------------------------------------------------------
# random_polytope


def test_random_polytope_deterministic_per_seed():
    for flavor in FLAVORS:
        P = random_polytope(2, 7, 42, flavor)
        Q = random_polytope(2, 7, 42, flavor)
        assert P.vertices == Q.vertices
        R = random_polytope(2, 7, 43, flavor)
        assert R.vertices != P.vertices


def test_random_polytope_centered_and_normalized():
    rng = random.Random(20260816)
    for _ in range(8):
        n = rng.choice([1, 2, 3])
        m = n + 1 + rng.randrange(6)
        flavor = rng.choice(FLAVORS)
        P = random_polytope(n, m, rng.randrange(10**6), flavor)
        assert P.mode == EXACT
        assert all(c == 0 for c in centroid(P))
        assert abs(float(volume(P)) - 1.0) < 1e-3


def test_perturbed_simplex_zero_perturbation_is_simplex():
    for n in (1, 2, 3):
        P = random_polytope(n, n + 1, 9, "perturbed-simplex", perturbation=0)
        assert len(P.vertices) == n + 1
        assert abs(float(volume(P)) - 1.0) < 1e-3
        # a centered copy of the standard simplex, rescaled to unit volume
        S = centered_simplex(n)
        scale = (float(volume(P)) / float(volume(S))) ** (1.0 / n)
        expected = {tuple(scale * float(c) for c in v) for v in S.vertices}
        got = {tuple(float(c) for c in v) for v in P.vertices}
        for g in got:
            assert min(max(abs(a - b) for a, b in zip(g, e)) for e in expected) < 1e-3


def test_random_polytope_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_polytope(2, 2, 0)  # m < n+1
    with pytest.raises(ValueError):
        random_polytope(0, 5, 0)
    with pytest.raises(ValueError):
        random_polytope(2, 5, 0, "no-such-flavor")


def test_random_polytope_surfaces_degenerate_after_retries(monkeypatch):
    calls = [0]

    def collinear(rng, n, m, flavor, perturbation):
        calls[0] += 1
        return [(rational(i), rational(i)) for i in range(m)]

    monkeypatch.setattr(harness, "_raw_points", collinear)
    with pytest.raises(DegenerateInput):
        random_polytope(2, 5, 0)
    assert calls[0] == 10


# ---------------------------------------------------------------------------
# minimize_over_translation


def test_translation_search_centered_simplex_halfway():
    # The centered simplex is its own minimizer at lambda=1/2: the search
    # brackets the closed-form hull ratio from both sides at the centroid.
    for n in (2, 3, 4):
        K = centered_simplex(n)
        sol = minimize_over_translation(K, 0.5)
        expected = float(simplex_hull_ratio(n, Fraction(1, 2)).ratio) * float(volume(K))
        assert sol.value == pytest.approx(expected, rel=1e-12, abs=0)
        assert sol.lower_bound == pytest.approx(expected, rel=1e-12, abs=0)
        assert max(abs(c) for c in sol.x_star) < 1e-9
        assert sol.iterations > 0


def test_translation_search_does_not_stall_at_a_kink():
    # A coordinatewise search stopped at 0.268710 here; the exact hull at a
    # point of K has volume 0.258771.
    K = random_polytope(3, 7, 78, "hull-of-sphere-points")
    sol = minimize_over_translation(K, 0.5)
    assert sol.value <= 0.258772
    assert sol.value - sol.lower_bound <= 1e-9 * sol.value


def _random_rational_point(K, rng):
    weights = [Fraction(rng.randint(1, 1000)) for _ in K.vertices]
    total = sum(weights)
    return tuple(sum(w * Fraction(v[c]) for w, v in zip(weights, K.vertices)) / total
                 for c in range(K.dim))


@pytest.mark.parametrize("body", ["kink", "simplex-3", "random-2"])
def test_translation_search_lower_bound_is_below_the_exact_objective(body):
    K = {"kink": lambda: random_polytope(3, 7, 78, "hull-of-sphere-points"),
         "simplex-3": lambda: centered_simplex(3),
         "random-2": lambda: random_polytope(2, 9, 11)}[body]()
    rng = random.Random(body)
    for lam in (Fraction(1, 3), Fraction(1, 2)):
        lower = minimize_over_translation(K, lam).lower_bound
        for _ in range(100):
            z = _random_rational_point(K, rng)
            f = volume(scaled_reflected_join(translate(K, tuple(-c for c in z)), lam))
            assert lower <= float(f) * (1 + 1e-12), z


def test_translation_search_lower_bound_is_below_a_near_minimizer():
    # The search takes 18 probes on this body.  x_ref is where it ends,
    # pinned to 17 digits, so f(x_ref) is within the search's 1e-9 gap of
    # the minimum: a lower bound inflated by even 0.1% stops the search
    # early and ends above it.
    K = random_polytope(3, 9, 2)
    sol = minimize_over_translation(K, 0.5)
    assert sol.iterations >= 5
    x_ref = np.array([-0.111963901435338, 0.11683034909392417, -0.02141821266588078])
    verts = np.array(K.vertices, dtype=float)
    f_ref, _ = join_volume_and_subgradient(0.5 * verts, -0.5 * verts, x_ref)
    assert sol.lower_bound <= f_ref * (1 + 1e-12)


def test_translation_search_lambda_zero_is_volume():
    K = random_polytope(2, 9, 11)
    sol = minimize_over_translation(K, 0.0)
    assert abs(sol.value - volume(K)) <= 1e-12
    sol1 = minimize_over_translation(K, 1.0)
    assert abs(sol1.value - volume(K)) <= 1e-12


def test_translation_search_improves_on_centroid_and_stays_inside():
    rng = random.Random(7)
    for _ in range(4):
        K = random_polytope(2, 5 + rng.randrange(6), rng.randrange(10**6))
        lam = rng.choice([0.3, 0.5, 0.7])
        sol = minimize_over_translation(K, lam)
        at_centroid = volume(scaled_reflected_join(K, lam))
        assert sol.value <= at_centroid + 1e-12
        assert contains_point(K, sol.x_star)
        bound = float(simplex_hull_ratio(2, lam).ratio) * volume(K)
        assert sol.value <= bound * (1 + 1e-9)


def test_translation_search_reports_its_lower_bound():
    K = centered_simplex(2)
    sol = minimize_over_translation(K, 0.5)
    assert 0 < sol.lower_bound <= sol.value


def test_translation_search_rejects_bad_lambda():
    with pytest.raises(ValueError):
        minimize_over_translation(centered_simplex(2), 1.5)


# ---------------------------------------------------------------------------
# ExperimentConfig


def test_config_defaults_and_derived_grids():
    cfg = ExperimentConfig(kind="godbersen", n=3)
    assert cfg.j_list == (1, 2)
    assert cfg.lambda_grid is None and cfg.theta_grid is None

    cfg = ExperimentConfig(kind="godbersen-via-gfr", n=3)
    assert [str(l) for l in cfg.lambda_grid] == ["3/4", "1/2"]

    cfg = ExperimentConfig(kind="kl", n=2)
    assert [str(t) for t in cfg.theta_grid] == ["1/4", "1/2", "3/4"]

    cfg = ExperimentConfig(kind="gfr", n=2, lambda_grid=(0.5, "1/4"))
    assert [str(l) for l in cfg.lambda_grid] == ["1/2", "1/4"]


def test_read_exact_returns_a_fraction_itself():
    q = Fraction(-7, 12)
    assert read_exact(q) is q
    assert read_exact(0.25) == Fraction(1, 4) and read_exact("1/3") == Fraction(1, 3)


def test_config_rejects_invalid_fields():
    bad_configs = [
        dict(kind="no-such-kind", n=2),
        dict(kind="planar", n=3),
        dict(kind="planar", n=2, mode=FLOAT),
        dict(kind="godbersen", n=1),
        dict(kind="functional", n=4),
        dict(kind="functional", n=1, lambda_grid=(0, 0.5)),
        dict(kind="godbersen", n=2, trials=0),
        dict(kind="godbersen", n=2, seed="abc"),
        dict(kind="gfr", n=2, lambda_grid=(1.5,)),
        dict(kind="gfr", n=2, lambda_grid=()),
        dict(kind="gfr", n=2, lambda_grid=("1/0",)),
        dict(kind="kl", n=2, theta_grid=("1/0",), mode=FLOAT),
        dict(kind="godbersen", n=3, j_list=(0,)),
        dict(kind="godbersen", n=3, j_list=(3,)),
        dict(kind="kl", n=2, j_list=(1,)),
        dict(kind="kl", n=2, lambda_grid=(0.5,)),
        dict(kind="godbersen", n=2, theta_grid=(0.5,)),
        dict(kind="godbersen-via-gfr", n=3, lambda_grid=("1/2",)),
        dict(kind="godbersen", n=2, mode="quad"),
        dict(kind="godbersen", n=2, output_path=""),
        dict(kind="ckl", n=5),
        dict(kind="strange", n=5),
        dict(kind="strange", n=5, mode=FLOAT),
    ]
    # The polytope kinds check exact bodies only.
    bad_configs += [dict(kind=kind, n=2, mode=FLOAT)
                    for kind in ("godbersen", "kl", "strange", "ckl")]
    for kwargs in bad_configs:
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)
    for kind in ("godbersen-via-gfr", "gfr", "functional"):
        assert ExperimentConfig(kind=kind, n=2, mode=FLOAT).mode == FLOAT
    assert ExperimentConfig(kind="strange", n=4).n == 4


def test_config_from_json_round_trip():
    cfg = ExperimentConfig.from_json({
        "kind": "kl", "n": 2, "trials": 3, "seed": 5,
        "theta_grid": ["1/4", "3/4"], "mode": "exact",
        "output_path": "out/run"})
    data = cfg.to_json_dict()
    again = ExperimentConfig.from_json(
        {k: v for k, v in data.items() if v is not None})
    assert again == cfg
    with pytest.raises(ValueError):
        ExperimentConfig.from_json({"kind": "kl", "n": 2, "bogus": 1})
    with pytest.raises(ValueError):
        ExperimentConfig.from_json({"n": 2})
    with pytest.raises(ValueError):
        ExperimentConfig.from_json([1, 2])


# ---------------------------------------------------------------------------
# run_experiment


def _read_records(base):
    with open(base + ".jsonl") as fp:
        return [json.loads(line) for line in fp]


REQUIRED_KEYS = {"kind", "check", "hard", "n", "j", "lambda", "theta", "seed",
                 "trial", "lhs", "rhs", "ratio", "tol", "pass", "meta"}


@pytest.mark.parametrize("kind,n,extra", [
    ("godbersen", 2, {}),
    ("godbersen-via-gfr", 2, {}),
    ("gfr", 2, {"lambda_grid": ("1/2",)}),
    ("kl", 2, {}),
    ("strange", 2, {}),
    ("ckl", 2, {}),
    ("functional", 1, {}),
    ("planar", 2, {"lambda_grid": ("1/4", "1/2")}),
])
def test_run_experiment_each_kind(tmp_path, kind, n, extra):
    base = str(tmp_path / kind)
    cfg = ExperimentConfig(kind=kind, n=n, trials=2, seed=3,
                           output_path=base, **extra)
    assert run_experiment(cfg) == 0
    records = _read_records(base)
    assert records
    for rec in records:
        assert REQUIRED_KEYS <= set(rec)
        assert rec["kind"] == kind and rec["n"] == n and rec["seed"] == 3
        assert rec["pass"] is True
        assert rec["trial"] in (0, 1)
    with open(base + ".csv") as fp:
        rows = fp.read().splitlines()
    assert rows[0] == ",".join(CSV_COLUMNS)
    # summary rows follow the per-record rows
    labels = [row.split(",")[6] for row in rows[1:]]
    assert labels.count("min") == labels.count("max") == labels.count("mean") > 0


def test_run_experiment_byte_identical_reruns(tmp_path):
    base = str(tmp_path / "rep")
    cfg = dict(kind="godbersen", n=3, trials=2, seed=9, output_path=base)
    assert run_experiment(ExperimentConfig(**cfg)) == 0
    first = open(base + ".jsonl", "rb").read(), open(base + ".csv", "rb").read()
    assert run_experiment(ExperimentConfig(**cfg)) == 0
    second = open(base + ".jsonl", "rb").read(), open(base + ".csv", "rb").read()
    assert first == second


def test_functional_sweep_byte_identical_reruns(tmp_path):
    base = str(tmp_path / "fun")
    config = ExperimentConfig(kind="functional", n=1, trials=3, seed=2, output_path=base)
    assert run_experiment(config) == 0
    first = open(base + ".jsonl", "rb").read(), open(base + ".csv", "rb").read()
    assert run_experiment(config) == 0
    assert (open(base + ".jsonl", "rb").read(), open(base + ".csv", "rb").read()) == first


@pytest.mark.parametrize("kind, n", [("gfr", 2), ("functional", 1)])
def test_float_mode_writes_the_exact_mode_bytes(tmp_path, kind, n):
    # JSON numbers in the grid are read exactly in either mode.
    outputs = []
    for mode in (EXACT, FLOAT):
        base = str(tmp_path / mode)
        config = ExperimentConfig.from_json({
            "kind": kind, "n": n, "trials": 2, "seed": 3, "lambda_grid": [0.25, 0.5],
            "mode": mode, "output_path": base})
        assert run_experiment(config) == 0
        outputs.append((open(base + ".jsonl", "rb").read(), open(base + ".csv", "rb").read()))
    assert outputs[0] == outputs[1]


def test_run_experiment_hard_failure_exits_2(tmp_path, monkeypatch):
    base = str(tmp_path / "fail")

    def failing_trial(config, trial):
        return {}, [("forced-failure", True, CheckReport(2.0, 1.0, 2.0, 0.0, False, {}), {})]

    monkeypatch.setitem(harness._TRIAL_RUNNERS, "kl", failing_trial)
    code = run_experiment(ExperimentConfig(kind="kl", n=2, trials=1,
                                           output_path=base))
    assert code == 2
    records = _read_records(base)
    assert records[0]["pass"] is False and records[0]["hard"] is True


def test_run_experiment_soft_failure_does_not_fail_run(tmp_path, monkeypatch):
    base = str(tmp_path / "soft")

    def soft_trial(config, trial):
        report = CheckReport(2.0, 1.0, 2.0, 0.0, False, {})
        return {"vertices": [[["0", "0"]]]}, [("conjecture", False, report, {"j": 1})]

    monkeypatch.setitem(harness._TRIAL_RUNNERS, "godbersen", soft_trial)
    code = run_experiment(ExperimentConfig(kind="godbersen", n=2, trials=1,
                                           output_path=base))
    assert code == 0
    rec = _read_records(base)[0]
    assert rec["violation_candidate"] is True
    assert rec["reproduction"] == {"kind": "godbersen", "n": 2, "seed": 0, "trial": 0,
                                   "mode": EXACT, "j": 1, "vertices": [[["0", "0"]]]}


@pytest.mark.parametrize("kind", ["kl", "functional"])
def test_run_experiment_isolates_a_raising_trial(tmp_path, monkeypatch, kind):
    """Both kinds run their trials in order on the calling thread."""
    base = str(tmp_path / "isolated")
    trial_runner = harness._TRIAL_RUNNERS[kind]

    def raising_trial(config, trial):
        if trial == 1:
            raise DegenerateInput("forced degenerate draw")
        return trial_runner(config, trial)

    monkeypatch.setitem(harness._TRIAL_RUNNERS, kind, raising_trial)
    config = ExperimentConfig(kind=kind, n=2 if kind == "kl" else 1, trials=3, seed=4,
                              output_path=base)
    assert run_experiment(config) == 2
    if kind == "kl":
        per_trial = cells = len(config.theta_grid)
    else:  # a product-inequality and a product-lower-bound record per lambda
        per_trial, cells = 2 * len(config.lambda_grid), len(config.lambda_grid)
    records = _read_records(base)
    assert [r["trial"] for r in records] == [0] * per_trial + [1] + [2] * per_trial
    assert all(r["pass"] for r in records if r["trial"] != 1)
    error = records[per_trial]
    assert error["check"] == "trial-error"
    assert error["hard"] is True and error["pass"] is False
    assert error["meta"] == {"error": "DegenerateInput", "message": "forced degenerate draw"}
    reproduction = error["reproduction"]
    assert reproduction["trial"] == 1
    assert ExperimentConfig.from_json(dict(reproduction["config"], output_path=base)) == config
    # The error record has no theta or lambda, so it gets summary rows of
    # its own.
    csv_rows = open(base + ".csv").read().splitlines()
    assert len(csv_rows) == 1 + len(records) + 3 * (cells + 1)


def test_functional_sweep_keeps_trial_order(tmp_path, monkeypatch):
    base = str(tmp_path / "order")
    config = ExperimentConfig(kind="functional", n=1, trials=3, seed=5, output_path=base)
    expected = [rec for t in range(3) for rec in run_trial(config, t)]
    assert run_experiment(config) == 0
    lines = "".join(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
                    for rec in expected)
    assert open(base + ".jsonl").read() == lines

    functional_trial = harness._TRIAL_RUNNERS["functional"]

    def raising_trial(config, trial):
        if trial == 1:
            raise DegenerateInput("forced degenerate draw")
        return functional_trial(config, trial)

    monkeypatch.setitem(harness._TRIAL_RUNNERS, "functional", raising_trial)
    assert run_experiment(config) == 2
    records = _read_records(base)
    assert [r["check"] for r in records if r["trial"] == 1] == ["trial-error"]
    assert [r for r in records if r["trial"] != 1] == [
        json.loads(json.dumps(rec)) for rec in expected if rec["trial"] != 1]


def test_functional_n3_trial_stays_under_the_dual_cap(monkeypatch):
    """One n=3 trial passes, and each axis's merged dual nodes stay far
    under the cap, so the cap's subsampling never fires on sweep inputs."""
    merge = functional._joint_dual_nodes
    sizes = []

    def spy(slope_sets, cap):
        out = merge(slope_sets, cap)
        sizes.append((len(out), cap))
        return out

    monkeypatch.setattr(functional, "_joint_dual_nodes", spy)
    config = ExperimentConfig(kind="functional", n=3, trials=1, seed=11, lambda_grid=["1/2"])
    records = run_trial(config, 0)
    assert [r["check"] for r in records] == ["product-inequality", "product-lower-bound"]
    assert all(r["pass"] for r in records)
    resolution = harness._functional_pair(config, 0)[2]["resolution"]
    assert len(sizes) == 3  # one joint dual grid per axis
    assert all(size <= resolution + 4 and cap == functional._dual_cap(3) == 513
               for size, cap in sizes)


def test_functional_lower_bound_failure_carries_reproduction(monkeypatch):
    verify = functional.verify_functional_inequality

    fail_product = [False]

    def failing_lower_bound(f, g, lam):
        rep = verify(f, g, lam)
        return dataclasses.replace(rep, passed=rep.passed and not fail_product[0],
                                   meta=dict(rep.meta, lower_bound_pass=False))

    monkeypatch.setattr(functional, "verify_functional_inequality", failing_lower_bound)
    config = ExperimentConfig(kind="functional", n=1, trials=1, seed=2, lambda_grid=("1/2",))
    product, lower = run_trial(config, 0)
    assert product["check"] == "product-inequality" and product["pass"] is True
    assert "reproduction" not in product
    assert lower["check"] == "product-lower-bound" and lower["pass"] is False
    assert lower["hard"] is True and "violation_candidate" not in lower
    assert set(lower["reproduction"]) == {
        "kind", "n", "seed", "trial", "mode", "gaussian_weight", "laplace_weight",
        "laplace_shift", "resolution", "half_width", "lambda"}
    assert lower["reproduction"]["lambda"] == "1/2"
    fail_product[0] = True
    product, _ = run_trial(config, 0)
    assert product["pass"] is False
    assert product["reproduction"] == lower["reproduction"]


@pytest.mark.parametrize("kind,extra,axes", [
    ("gfr", {"lambda_grid": ("1/4",)}, {"lambda"}),
    ("godbersen-via-gfr", {}, {"j", "lambda"}),
])
def test_failing_search_records_are_soft_candidates(tmp_path, monkeypatch, kind, extra, axes):
    def above_the_bound(K, lam):
        return harness.TranslationSolution((0.0,) * K.dim, 1e6, 0.0, 1)

    monkeypatch.setattr(harness, "minimize_over_translation", above_the_bound)
    base = str(tmp_path / kind)
    config = ExperimentConfig(kind=kind, n=2, trials=1, seed=1, output_path=base, **extra)
    assert run_experiment(config) == 0
    records = _read_records(base)
    search = [rec for rec in records if rec["check"] == "translation-search-bound"]
    exact = harness._trial_body(config, 0)
    assert search and all(rec["pass"] for rec in records if rec["hard"])
    for rec in search:
        assert rec["pass"] is False and rec["hard"] is False
        assert rec["violation_candidate"] is True
        reproduction = rec["reproduction"]
        assert set(reproduction) == {"kind", "n", "seed", "trial", "mode", "vertices"} | axes
        assert None not in reproduction.values()
        assert reproduction["vertices"] == [[[str(c) for c in v] for v in exact.vertices]]


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind,n,extra", [
    ("godbersen", 3, {}),
    ("godbersen-via-gfr", 2, {}),
    ("gfr", 2, {"lambda_grid": ("1/4", "1/2")}),
    ("kl", 2, {}),
    ("strange", 2, {}),
    ("ckl", 2, {}),
    ("functional", 1, {"lambda_grid": ("1/4", "1/2")}),
    ("planar", 2, {"lambda_grid": ("1/4", "1/2")}),
])
def test_trial_record_count_matches_the_benchmark(kind, n, extra):
    # The benchmark marks a trial wrong when its record count differs.
    config = ExperimentConfig(kind=kind, n=n, trials=1, seed=2, **extra)
    assert len(run_trial(config, 0)) == _benchmark_workloads().records_per_trial(config)


def test_run_experiment_unwritable_path_exits_3():
    cfg = ExperimentConfig(kind="gfr", n=2, trials=1, lambda_grid=("1/2",),
                           output_path="/no-such-directory/run")
    assert run_experiment(cfg) == 3


def test_run_experiment_accepts_raw_dict(tmp_path):
    base = str(tmp_path / "dict")
    code = run_experiment({"kind": "kl", "n": 2, "trials": 1, "seed": 0,
                           "output_path": base})
    assert code == 0
    assert os.path.exists(base + ".jsonl")


def test_via_gfr_uses_exactly_the_derived_lambda_set(tmp_path):
    base = str(tmp_path / "vg")
    cfg = ExperimentConfig(kind="godbersen-via-gfr", n=3, trials=1, seed=1,
                           output_path=base)
    assert run_experiment(cfg) == 0
    records = _read_records(base)
    lams = {rec["lambda"] for rec in records}
    assert lams == {"3/4", "1/2"}
    js = {rec["j"] for rec in records}
    assert js == {1, 2}
    assert {rec["check"] for rec in records} == {
        "hull-ratio-implies-binomial-bound", "translation-search-bound"}


def test_gfr_halfway_cross_check_emitted(tmp_path):
    base = str(tmp_path / "gfrhalf")
    cfg = ExperimentConfig(kind="gfr", n=2, trials=1, seed=0,
                           lambda_grid=("1/2",), output_path=base)
    assert run_experiment(cfg) == 0
    records = _read_records(base)
    cross = [r for r in records if r["check"] == "halfway-binomial-cross-check"]
    assert len(cross) == 1
    assert cross[0]["hard"] is True and cross[0]["pass"] is True


def test_godbersen_trial_record_structure():
    cfg = ExperimentConfig(kind="godbersen", n=2, trials=1, seed=0,
                           output_path="unused")
    records = run_trial(cfg, 0)
    checks = [r["check"] for r in records]
    assert checks == ["translation-bound", "binomial-conjecture",
                      "difference-body-bound", "difference-body-expansion"]
    hard = {r["check"]: r["hard"] for r in records}
    assert hard["translation-bound"] is True
    assert hard["binomial-conjecture"] is False
    assert all(r["pass"] for r in records)


def test_planar_trial_checks_chain_invariants():
    cfg = ExperimentConfig(kind="planar", n=2, trials=1, seed=8,
                           lambda_grid=("1/3",), output_path="unused")
    records = run_trial(cfg, 0)
    chain = [r for r in records if r["check"] == "triangle-reduction-chain"][0]
    meta = chain["meta"]
    assert meta["area_preserved"] and meta["centroid_preserved"]
    assert meta["one_vertex_per_step"] and meta["objective_monotone"]
    assert meta["objective_chained"]
    assert meta["steps"] == meta["start_vertices"] - 3


# ---------------------------------------------------------------------------
# CLI


def test_cli_experiment_subcommand(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    base = str(tmp_path / "out")
    cfg_path.write_text(json.dumps({"n": 2, "trials": 1, "seed": 4,
                                    "output_path": base}))
    assert main(["godbersen", "--config", str(cfg_path)]) == 0
    assert os.path.exists(base + ".jsonl") and os.path.exists(base + ".csv")

    # --output override
    assert main(["godbersen", "--config", str(cfg_path),
                 "--output", str(tmp_path / "other")]) == 0
    assert os.path.exists(str(tmp_path / "other") + ".jsonl")


def test_cli_accepts_via_gfr_under_godbersen(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kind": "godbersen-via-gfr", "n": 2, "trials": 1, "seed": 4,
        "output_path": str(tmp_path / "vg")}))
    assert main(["godbersen", "--config", str(cfg_path)]) == 0


def test_cli_config_errors_exit_3(tmp_path):
    assert main(["gfr", "--config", str(tmp_path / "missing.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gfr", "--config", str(bad)]) == 3
    mismatch = tmp_path / "mismatch.json"
    mismatch.write_text(json.dumps({"kind": "kl", "n": 2}))
    assert main(["godbersen", "--config", str(mismatch)]) == 3
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"kind": "kl", "n": 99}))
    assert main(["kl", "--config", str(invalid)]) == 3
    # A non-finite grid entry is a config error, not a crash.
    infinite = tmp_path / "infinite.json"
    infinite.write_text('{"kind": "gfr", "n": 2, "lambda_grid": [Infinity]}')
    assert main(["gfr", "--config", str(infinite)]) == 3
    # A polytope kind checks exact bodies only.
    float_kl = tmp_path / "float-kl.json"
    float_kl.write_text(json.dumps({"kind": "kl", "n": 2, "mode": "float",
                                    "output_path": str(tmp_path / "float-kl")}))
    assert main(["kl", "--config", str(float_kl)]) == 3
    assert not (tmp_path / "float-kl.jsonl").exists()


def test_cli_zero_denominators_exit_3(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "gfr", "n": 2, "lambda_grid": ["1/0"],
                               "output_path": str(tmp_path / "out")}))
    assert main(["gfr", "--config", str(cfg)]) == 3
    square = {"dim": 2, "mode": "exact",
              "vertices": [["-1", "-1"], ["1", "-1"], ["1", "1"], ["-1", "1"]]}
    good = tmp_path / "square.json"
    good.write_text(json.dumps(square))
    assert main(["reduce-planar", "--input", str(good), "--lambda", "1/0",
                 "--trace", str(tmp_path / "t1.json")]) == 3
    square["vertices"][0][0] = "1/0"
    with pytest.raises(ValueError, match="zero denominator"):
        polytope_from_json(square)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(square))
    assert main(["reduce-planar", "--input", str(bad), "--lambda", "1/3",
                 "--trace", str(tmp_path / "t2.json")]) == 3
    assert not (tmp_path / "t1.json").exists() and not (tmp_path / "t2.json").exists()


def test_cli_reduce_planar_trace(tmp_path):
    poly_path = tmp_path / "poly.json"
    trace_path = tmp_path / "trace.json"
    P = random_polytope(2, 10, 123)
    poly_path.write_text(json.dumps(polytope_to_json(P)))
    code = main(["reduce-planar", "--input", str(poly_path), "--lambda", "1/3",
                 "--trace", str(trace_path)])
    assert code == 0
    trace = json.loads(trace_path.read_text())
    assert len(trace["final"]["vertices"]) == 3
    assert len(trace["steps"]) == len(P.vertices) - 3
    assert trace["hull-area-bound"]["pass"] is True
    for step in trace["steps"]:
        assert {"before", "after", "chosen_t", "endpoint"} <= set(step)
    # Float polygon JSON is read at its exact binary values.
    floats = [[float(c) for c in v] for v in P.vertices]
    float_path = tmp_path / "float.json"
    float_path.write_text(json.dumps({"dim": 2, "mode": "float", "vertices": floats}))
    float_trace = tmp_path / "float-trace.json"
    assert main(["reduce-planar", "--input", str(float_path), "--lambda", "1/3",
                 "--trace", str(float_trace)]) == 0
    read = polytope_from_json(json.loads(float_trace.read_text())["input"])
    assert read == convex_hull([[Fraction(c) for c in v] for v in floats])


def test_cli_reduce_planar_centers_a_triangle(tmp_path):
    triangle = {"dim": 2, "mode": "exact", "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
    poly_path = tmp_path / "triangle.json"
    trace_path = tmp_path / "trace.json"
    poly_path.write_text(json.dumps(triangle))
    assert main(["reduce-planar", "--input", str(poly_path), "--lambda", "1/3",
                 "--trace", str(trace_path)]) == 0
    trace = json.loads(trace_path.read_text())
    assert trace["steps"] == []
    assert trace["final_objective"] == trace["hull-area-bound"]["lhs"] == "2/9"
    final = polytope_from_json(trace["final"])
    assert centroid(final) == (0, 0)
    assert volume(scaled_reflected_join(final, rational(1, 3))) == Fraction(2, 9)


def test_cli_simplex_ratio_output(capsys):
    assert main(["simplex-ratio", "--n", "3", "--lambda", "1/2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"k": [1, 2], "lambda": "1/2", "n": 3, "ratio": "3/8"}
    # A decimal lambda is read exactly.
    assert main(["simplex-ratio", "--n", "2", "--lambda", "0.25"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"k": [2], "lambda": "1/4", "n": 2, "ratio": "9/16"}


def test_cli_mixed_volume(tmp_path, capsys):
    s_path = tmp_path / "s.json"
    c_path = tmp_path / "c.json"
    with open(s_path, "w") as fp:
        json.dump(polytope_to_json(centered_simplex(2)), fp)
    with open(c_path, "w") as fp:
        json.dump(polytope_to_json(cube(2)), fp)
    assert main(["mixed-volume", "--bodies", str(s_path), str(c_path)]) == 0
    general = json.loads(capsys.readouterr().out)
    assert main(["mixed-volume", "--bodies", str(s_path), str(c_path),
                 "--j", "1"]) == 0
    pair = json.loads(capsys.readouterr().out)
    assert general["value"] == pair["value"]
    assert general["method"] == "polarization"
    assert pair == {"value": pair["value"], "method": "cayley"}
    assert main(["mixed-volume", "--bodies", str(s_path), "--j", "1"]) == 3


# ---------------------------------------------------------------------------
# regressions


def test_exact_godbersen_trial_builds_one_minkowski_hull(monkeypatch):
    calls = []
    original = mixed.triangulate

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    def interpolating(*bodies):
        raise AssertionError("godbersen trials read mixed volumes off the Cayley fan")

    monkeypatch.setattr(mixed, "triangulate", counting)
    monkeypatch.setattr(mixed, "minkowski_sum", interpolating)
    monkeypatch.setattr(mixed, "volume_polynomial", interpolating)
    records = run_trial(ExperimentConfig(kind="godbersen", n=3, trials=1, seed=3), 0)
    # The Cayley polytope of K and -K, then the one K - K hull, of the
    # vertex differences, that the expansion identity checks the Cayley
    # route against.
    K = harness._trial_body(ExperimentConfig(kind="godbersen", n=3, trials=1, seed=3), 0)
    assert calls == [2 * len(K.vertices), len(K.vertices) ** 2]
    assert all(rec["pass"] for rec in records if rec["hard"])


def test_harness_and_cli_import_without_numpy():
    code = ("import sys, godbersen_kit.harness, godbersen_kit.cli; "
            "assert 'numpy' not in sys.modules; "
            "assert 'godbersen_kit.functional' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracing.py wraps functions by module and name, and the
    # benchmark worker stamps harness.thread_cap() and scalars.rational(1):
    # a deleted or renamed name fails here before it fails a benchmark run.
    root = Path(__file__).resolve().parents[1]
    code = ("from tracing import Tracer; Tracer().install(); "
            "from godbersen_kit import harness, scalars; "
            "harness.thread_cap(); scalars.rational(1)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(root / d) for d in ("src", "perfbench")))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_float_gfr_flat_first_basis_does_not_abort():
    config = ExperimentConfig(kind="gfr", n=2, trials=1, mode="float", seed=5000,
                              lambda_grid=("1/2",))
    records = run_trial(config, 0)
    assert [rec["check"] for rec in records] == [
        "translation-search-bound", "halfway-binomial-cross-check"]
    assert all(rec["pass"] for rec in records if rec["hard"])


def test_strange_sweep_takes_theta_endpoints(tmp_path):
    base = str(tmp_path / "strange")
    code = run_experiment({"kind": "strange", "n": 2, "trials": 2,
                           "theta_grid": ["0", "1/2", "1"], "output_path": base})
    assert code == 0
    records = _read_records(base)
    assert [rec["trial"] for rec in records] == [0, 0, 1, 1]
    for rec in records[1::2]:
        flags = [flag for _, flag in rec["meta"]["inclusion_by_theta"]]
        assert flags[0] is None and flags[2] is None and flags[1] is not None


def test_exact_failures_carry_the_reproduction_payload(monkeypatch):
    ratio, ckl = harness.godbersen_ratio, harness.verify_ckl_bound

    def fake_ratio(K, j, mixed=None):
        rep = ratio(K, j, mixed)
        # Above both the proved and the conjectured bound.
        lhs = 2 * (rep.rhs + rep.meta["rhs_conjectured"])
        return dataclasses.replace(rep, lhs=lhs, ratio=lhs / rep.rhs, passed=False)

    def fake_ckl(K, L, theta, C=None):
        return dataclasses.replace(ckl(K, L, theta, C=C), passed=False)

    monkeypatch.setattr(harness, "godbersen_ratio", fake_ratio)
    monkeypatch.setattr(harness, "verify_ckl_bound", fake_ckl)
    configs = [
        ExperimentConfig(kind="godbersen", n=2, trials=1, seed=6),
        ExperimentConfig(kind="ckl", n=2, trials=1, seed=6, theta_grid=("1/3", "1/2")),
    ]
    failed = [rec for config in configs for rec in run_trial(config, 0)]
    hard = [rec for rec in failed
            if rec["check"] in ("translation-bound", "layered-body-volume-bound")]
    assert len(hard) == 3
    for rec in hard:
        assert rec["pass"] is False and "violation_candidate" not in rec
        axis = "j" if rec["kind"] == "godbersen" else "theta"
        assert set(rec["reproduction"]) == {
            "kind", "n", "seed", "trial", "mode", axis, "vertices"}
        assert rec["reproduction"]["mode"] == EXACT
    conjecture = [rec for rec in failed if rec["check"] == "binomial-conjecture"]
    assert conjecture and all(rec["violation_candidate"] is True for rec in conjecture)


def test_exact_strange_at_n4_writes_its_exact_ratio(tmp_path):
    # Vol (K°+L°)° has a denominator of tens of thousands of digits, past
    # the interpreter's int/str digit limit: run_experiment lifts the
    # limit while it builds and writes the records, and restores it.
    base = str(tmp_path / "strange4")
    limit = sys.get_int_max_str_digits()
    config = ExperimentConfig(kind="strange", n=4, trials=1, seed=11, theta_grid=("1/2",),
                              output_path=base)
    assert run_experiment(config) == 0
    assert sys.get_int_max_str_digits() == limit
    rec = _read_records(base)[0]
    assert rec["check"] == "join-polar-sum-product" and rec["pass"] is True
    K, L = (harness._trial_body(config, 0, offset=i) for i in (0, 1))
    sys.set_int_max_str_digits(0)
    try:
        lhs = Fraction(rec["lhs"])
        assert lhs == harness.verify_strange(K, L, ()).lhs
        assert len(str(lhs.denominator)) > limit
        with open(base + ".csv") as fp:
            rows = [row.split(",") for row in fp.read().splitlines()]
        ratio = CSV_COLUMNS.index("ratio")
        assert float(rows[-1][ratio]) == float(Fraction(rows[1][ratio]))
    finally:
        sys.set_int_max_str_digits(limit)


def test_run_trial_lifts_the_digit_limit_itself():
    # The strange n=3 records of this seed hold ints of 1,907 digits; called
    # directly, without run_experiment, run_trial must still build them.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        recs = run_trial(ExperimentConfig(kind="strange", n=3, trials=1, seed=14), 0)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert [rec["pass"] for rec in recs] == [True, True]


def test_readme_config_examples_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"printf '(\{.*\})\\n'", text)
    assert examples
    for example in examples:
        ExperimentConfig.from_json(json.loads(example))
    mode_row = next(line for line in text.splitlines() if line.startswith("| `mode`"))
    modes = re.findall(r'`"(\w+)"`', mode_row)
    assert modes
    for mode in modes:
        ExperimentConfig.from_json({"kind": "gfr", "n": 2, "mode": mode})
