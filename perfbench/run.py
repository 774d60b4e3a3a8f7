"""Benchmark of godbersen-kit sweeps through the public harness API.

Run from the repository root::

    python3 perfbench/run.py --workload mixed-exact --seed 1 --seconds 20 --trace 0

The load is a closed loop with one client: a single worker process calls
``harness.run_experiment`` on one sweep config at a time, with the
harness's default pool (``GODBERSEN_KIT_THREADS`` is removed from the
worker's environment).  Workloads are defined in ``workloads.py``; why
each exists is recorded in ``BENCHMARK.json``.  The seed is an argument;
claims should also be checked on ``HELD_OUT_SEED``.

``--trace 0`` prints the end-to-end metrics:

* ``trials_per_s`` -- trials ÷ wall time of ``run_experiment``, summed
  over the passes of a fresh worker process that draw distinct inputs;
* ``cpu_s_per_trial`` -- user+sys CPU of the worker and its children
  during those calls ÷ trials;
* ``peak_rss_mb`` -- the worker's ``ru_maxrss``;
* ``setup_s`` -- median over several fresh interpreters of the time to
  import ``godbersen_kit.harness`` and validate the workload's configs.

``--trace 1`` prints the per-layer metrics of ``tracing.py`` from two
traced runs of the first pass's inputs, plus ``trace.overhead``, the
traced ÷ untraced ``trials_per_s`` on the same inputs.

Every run checks every sweep: ``run_experiment`` returns 0, no hard
record fails, each trial emits the record count its config implies, and
the ``.jsonl``/``.csv`` bytes match between the repeated first pass and
across the untraced and traced runs.  A trial that misses any of these,
or whose sweep raised, is counted in ``failed``; the count metrics must
repeat exactly across the two traced runs.  Human-readable lines (the
environment stamp, each metric with its unit, ``failed_ops_ratio`` and
the verdict) precede the final JSON line.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, pass_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 7919
SETUP_REPS = 5
WORKER_TIMEOUT = 170
COUNT_SUFFIXES = (".calls", ".points_in", ".facets_out", ".max_coord_bits", ".evals",
                  ".hulls_per_eval", ".steps", ".calls_per_trial", ".output_bytes")
SETUP_CODE = (
    "import json, sys\n"
    "from godbersen_kit.harness import ExperimentConfig\n"
    "for c in json.loads(sys.argv[1]):\n"
    "    ExperimentConfig.from_json(c)\n"
)


def _env():
    env = dict(os.environ)
    env.pop("GODBERSEN_KIT_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _setup_seconds(configs):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(configs)],
                   cwd=ROOT, env=_env(), check=True, timeout=60)
    return time.perf_counter() - t0


def _worker(spec, tag, traced, seconds):
    spec = dict(spec, tag=tag, traced=traced, seconds=seconds,
                result=str(Path(spec["out_dir"]) / (tag + ".json")))
    subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                   cwd=ROOT, env=_env(), check=True, timeout=WORKER_TIMEOUT)
    return json.loads(Path(spec["result"]).read_text())


def _tally(passes, reference):
    """Per pass: (trials, wall, cpu, failed trials, wrong trials).

    A sweep that raised fails its trials; a trial with a wrong record fails
    and is wrong; a sweep on the first inputs whose output bytes differ
    from ``reference`` is wrong whole.
    """
    rows = []
    for p in passes:
        trials = failed = wrong = 0
        wall = cpu = 0.0
        for i, s in enumerate(p["sweeps"]):
            bad = s["trials"] if p["q"] == 0 and s["digest"] != reference[i] else s["wrong"]
            trials += s["trials"]
            wall += s["wall"]
            cpu += s["cpu"]
            wrong += bad
            failed += s["trials"] if s["raised"] else bad
        rows.append((trials, wall, cpu, failed, wrong))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "godbersen_kit" / "harness.py").is_file():
        sys.exit("perfbench: no godbersen_kit sources under %s" % (ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    spec = {"workload": args.workload, "seed": args.seed, "out_dir": str(out_dir)}

    values = {}
    if not args.trace:
        configs = pass_configs(args.workload, args.seed, 0)
        values["setup_s"] = statistics.median(
            _setup_seconds(configs) for _ in range(SETUP_REPS))
    # Traced, the untraced worker only runs the two passes on the first
    # inputs that the traced runs are compared against.
    base = _worker(spec, "untraced", False, 0 if args.trace else args.seconds)
    reference = [s["digest"] for s in base["passes"][0]["sweeps"]]
    rows = _tally(base["passes"], reference)
    notes = []
    if args.trace:
        traced = [_worker(spec, "traced%d" % k, True, 0) for k in (0, 1)]
        layers = [run["layers"] for run in traced]
        for name in layers[0]:
            values[name] = statistics.median(layer[name] for layer in layers)
        drift = sorted(n for n in layers[0]
                       if n.endswith(COUNT_SUFFIXES) and layers[0][n] != layers[1][n])
        if drift:
            notes.append("counts differ between the two traced runs: " + ", ".join(drift))
            for p in traced[1]["passes"]:
                for sweep in p["sweeps"]:
                    sweep["wrong"] = sweep["trials"]
        traced_rows = [row for run in traced for row in _tally(run["passes"], reference)]
        values["trace.overhead"] = (statistics.median(r[0] / r[1] for r in traced_rows)
                                    / statistics.median(r[0] / r[1] for r in rows))
        rows += traced_rows
    else:
        # The second pass repeats the first one's inputs for the byte check;
        # the rates count each input draw once.
        distinct = rows[:1] + rows[2:]
        trials = sum(r[0] for r in distinct)
        values["trials_per_s"] = trials / sum(r[1] for r in distinct)
        values["cpu_s_per_trial"] = sum(r[2] for r in distinct) / trials
        values["peak_rss_mb"] = base["peak_rss_mb"]
    trials, _, _, failed, wrong = (sum(col) for col in zip(*rows))

    stamp = dict(base["stamp"], workload=args.workload, seed=args.seed,
                 held_out_seed=HELD_OUT_SEED, trace=args.trace)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    summary = {"correct": wrong == 0, "attempted": trials, "failed": failed,
               "metrics": metrics}
    (out_dir / "summary.json").write_text(json.dumps(dict(summary, stamp=stamp), indent=1))

    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, m in metrics.items():
        print("%-48s %16.6f %s" % (name, m["value"], m["unit"]))
    print("failed_ops_ratio %.6f (%d of %d trials failed)" % (failed / trials, failed, trials))
    for note in notes:
        print("note: " + note)
    print("check: %s (%d trials with wrong output)" % ("ok" if wrong == 0 else "WRONG", wrong))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
