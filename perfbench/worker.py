"""One measurement process of the benchmark; ``run.py`` starts it.

Usage: ``python3 perfbench/worker.py '<json spec>'`` with the package's
``src`` directory on ``PYTHONPATH``.  The spec names the workload, seed,
seconds, whether to trace, and where to write outputs and the result.

Untraced, the worker runs passes for about ``seconds``, at least two.
The second pass repeats the first one's inputs so that their output bytes
can be compared; later passes draw new inputs.  Traced, it runs the
first pass's inputs once with every layer function wrapped.  Either way it
checks each sweep's outputs and writes one JSON result file.
"""

import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from workloads import pass_configs, records_per_trial


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _wrong_trials(config, rc, jsonl):
    """Trials whose records are miscounted or include a failed hard check.

    Every trial counts when the sweep returned a nonzero code that no
    single trial explains.
    """
    per_trial = {}
    bad = set()
    for line in jsonl.splitlines():
        rec = json.loads(line)
        per_trial[rec["trial"]] = per_trial.get(rec["trial"], 0) + 1
        if rec["hard"] and not rec["pass"]:
            bad.add(rec["trial"])
    expected = records_per_trial(config)
    bad.update(t for t in range(config.trials) if per_trial.get(t, 0) != expected)
    if rc != 0 and not bad:
        return config.trials
    return len(bad)


def run_sweep(harness, cfg, base):
    """Run one sweep through the public API and check what it wrote."""
    config = harness.ExperimentConfig.from_json(dict(cfg, output_path=str(base)))
    paths = [base.with_suffix(".jsonl"), base.with_suffix(".csv")]
    for p in paths:
        p.unlink(missing_ok=True)
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    try:
        rc = harness.run_experiment(config)
    except Exception:  # a raising sweep is counted as failed; the run goes on
        traceback.print_exc()
        rc = None
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    data = [p.read_bytes() if p.exists() else None for p in paths]
    # A sweep that raised or wrote nothing failed without a wrong answer.
    raised = rc is None or None in data
    return {
        "kind": config.kind,
        "trials": config.trials,
        "wall": wall,
        "cpu": cpu,
        "raised": raised,
        "wrong": 0 if raised else _wrong_trials(config, rc, data[0].decode()),
        "digest": hashlib.sha256(b"\0".join(d or b"" for d in data)).hexdigest(),
        "bytes": sum(len(d or b"") for d in data),
    }


def run_pass(harness, spec, q, tag):
    out = Path(spec["out_dir"])
    configs = pass_configs(spec["workload"], spec["seed"], q)
    return {"q": q, "sweeps": [run_sweep(harness, cfg, out / ("%s-%d" % (tag, i)))
                               for i, cfg in enumerate(configs)]}


def main(spec):
    if spec["traced"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    from godbersen_kit import harness, scalars

    result = {"stamp": {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rational_backend": type(scalars.rational(1)).__module__,
        "thread_cap": harness.thread_cap(),
    }}
    if spec["traced"]:
        sweeps = run_pass(harness, spec, 0, "traced")
        result["passes"] = [sweeps]
        result["layers"] = tracer.metrics(sum(s["trials"] for s in sweeps["sweeps"]),
                                          sum(s["bytes"] for s in sweeps["sweeps"]))
        tracer.dump(Path(spec["out_dir"]) / ("spans-%s.npz" % spec["tag"]))
    else:
        passes = result["passes"] = []
        start = time.perf_counter()
        # Start another pass while it would end, on average, within seconds.
        while len(passes) < 2 or (
                (time.perf_counter() - start) * (1 + 0.5 / len(passes)) < spec["seconds"]):
            q = max(0, len(passes) - 1)
            passes.append(run_pass(harness, spec, q, "pass%d" % len(passes)))
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result["peak_rss_mb"] = peak / 1024
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
