"""Workload definitions: the sweep configs one pass of each workload runs.

A run repeats passes.  Pass ``q`` of a run with seed ``s`` gives every
config the sweep seed ``s * 1000 + q``, so one benchmark seed fixes every
input and different passes draw different bodies.  Why each workload
exists is recorded in ``BENCHMARK.json``.

Passes are kept to a few seconds so that a run averages over many input
draws: trial cost varies several-fold between random bodies.  Every
sweep has at least two trials, so the harness's thread pool is used.
The float search runs at n=2 and lambda=1/4 only: at n=3 one trial takes
3 to 30 s, lambda=3/4 repeats the lambda=1/4 search on the reflected
body, and lambda=1/2 searches have a heavy-tailed evaluation count.  The
functional sweep runs at n=2 because one n=3 trial takes about 30 s and
its cost and peak memory vary by 15% between draws.  It shares a
workload with the float search: alone, its memory-bound numpy stages
swung by half between runs with the machine's load.
"""

from fractions import Fraction

WORKLOADS = {
    "mixed-exact": [
        {"kind": "godbersen", "n": 3, "trials": 3, "mode": "exact"},
    ],
    "rs-planar": [
        {"kind": "kl", "n": 3, "trials": 2, "mode": "exact"},
        {"kind": "strange", "n": 3, "trials": 2, "mode": "exact"},
        {"kind": "ckl", "n": 3, "trials": 2, "mode": "exact"},
        {"kind": "planar", "n": 2, "trials": 2, "mode": "exact"},
    ],
    "float-functional": [
        {"kind": "gfr", "n": 2, "trials": 2, "mode": "float", "lambda_grid": ["1/4"]},
        {"kind": "functional", "n": 2, "trials": 4, "mode": "exact"},
    ],
}


def pass_configs(workload, seed, q):
    """Config dicts (without output_path) for input draw ``q`` of a run."""
    return [dict(c, seed=seed * 1000 + q) for c in WORKLOADS[workload]]


def records_per_trial(config):
    """Records one trial of a validated ExperimentConfig must emit."""
    if config.kind == "godbersen":
        return 2 * len(config.j_list) + 2
    if config.kind == "godbersen-via-gfr":
        return 2 * len(config.j_list)
    if config.kind == "gfr":
        return len(config.lambda_grid) + sum(lam == Fraction(1, 2) for lam in config.lambda_grid)
    if config.kind in ("kl", "ckl"):
        return len(config.theta_grid)
    if config.kind == "strange":
        return 2
    return 2 * len(config.lambda_grid)  # functional, planar
