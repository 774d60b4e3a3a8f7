"""Command-line entry point.

``godbersen-kit <subcommand> ...`` with:

* experiment sweeps driven by a JSON config file
  (``godbersen``, ``gfr``, ``kl``, ``strange``, ``ckl``, ``functional``);
* ``reduce-planar`` — trace the vertex-removal reduction of one polygon;
* ``simplex-ratio`` — print the closed-form simplex hull ratio;
* ``mixed-volume`` — mixed volume of bodies given as polytope JSON files.

``--lambda`` is read exactly: "1/3" as a third, "0.25" as a quarter.

Exit codes: 0 — success; 2 — a proved inequality failed beyond tolerance;
3 — configuration or I/O error.
"""

import argparse
import json
import sys

from .errors import GodbersenKitError
from .harness import ExperimentConfig, _output_base, run_experiment
from .mixed import mixed_volume_general, mixed_volume_pair
from .planar import reduce_to_triangle, verify_planar_gfr
from .polytopes import centroid, polytope_from_json, polytope_to_json, translate
from .scalars import read_exact, scalar_to_json
from .simplexes import simplex_hull_ratio

EXPERIMENT_COMMANDS = ("godbersen", "gfr", "kl", "strange", "ckl", "functional")


def _load_json(path):
    with open(path) as fp:
        return json.load(fp)


def _experiment_command(args):
    obj = _load_json(args.config)
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    kind = obj.get("kind", args.command)
    allowed = {args.command}
    if args.command == "godbersen":
        allowed.add("godbersen-via-gfr")
    if kind not in allowed:
        raise ValueError(
            "config kind %r does not match subcommand %r" % (kind, args.command))
    obj["kind"] = kind
    if args.output is not None:
        obj["output_path"] = args.output
    config = ExperimentConfig.from_json(obj)
    code = run_experiment(config)
    base = _output_base(config.output_path)
    if code == 0:
        print("ok: wrote %s.jsonl and %s.csv" % (base, base))
    elif code == 2:
        print("HARD FAILURE: a proved inequality failed or a trial raised; see %s.jsonl"
              % base)
    return code


def _reduce_planar_command(args):
    body = polytope_from_json(_load_json(args.input))
    lam = read_exact(args.lam)
    steps = reduce_to_triangle(body, lam)
    report = verify_planar_gfr(body, lam, steps[0].objective_before if steps else None)
    # A triangle takes no step: it ends as the centered input, whose join
    # area is the report's lhs.
    final = steps[-1].after if steps else translate(body, tuple(-c for c in centroid(body)))
    trace = {
        "input": polytope_to_json(body),
        "lambda": scalar_to_json(lam),
        "steps": [step.to_json_dict() for step in steps],
        "final": polytope_to_json(final),
        "final_objective": scalar_to_json(steps[-1].objective_after if steps else report.lhs),
        "hull-area-bound": report.to_json_dict(),
    }
    with open(args.trace, "w") as fp:
        json.dump(trace, fp, sort_keys=True, indent=2)
        fp.write("\n")
    print("reduced %d -> 3 vertices in %d steps; trace written to %s"
          % (len(body.vertices), len(steps), args.trace))
    return 0 if report.passed else 2


def _simplex_ratio_command(args):
    formula = simplex_hull_ratio(args.n, args.lam)
    print(json.dumps(formula.to_json_dict(), sort_keys=True))
    return 0


def _mixed_volume_command(args):
    bodies = [polytope_from_json(_load_json(path)) for path in args.bodies]
    if args.j is not None:
        if len(bodies) != 2:
            raise ValueError("--j needs exactly two bodies (K repeated j times, "
                             "T repeated n-j times)")
        result = mixed_volume_pair(bodies[0], bodies[1], args.j)
    else:
        result = mixed_volume_general(bodies)
    out = {"value": scalar_to_json(result.value), "method": result.method}
    print(json.dumps(out, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="godbersen-kit",
        description="Polytope arithmetic, mixed volumes, and inequality sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in EXPERIMENT_COMMANDS:
        p = sub.add_parser(kind, help="run a '%s' sweep from a JSON config" % kind)
        p.add_argument("--config", required=True, help="path to the config JSON")
        p.add_argument("--output", default=None,
                       help="override the config's output_path")

    p = sub.add_parser("reduce-planar",
                       help="trace the planar vertex-removal reduction")
    p.add_argument("--input", required=True, help="polygon JSON file")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="lambda in [0,1], e.g. 1/3 or 0.25")
    p.add_argument("--trace", required=True, help="output JSON file for the steps")

    p = sub.add_parser("simplex-ratio",
                       help="closed-form hull volume ratio for the simplex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)

    p = sub.add_parser("mixed-volume",
                       help="mixed volume of polytope JSON files")
    p.add_argument("--bodies", nargs="+", required=True,
                   help="n polytope JSON files (or two files with --j)")
    p.add_argument("--j", type=int, default=None,
                   help="with two bodies: repeat the first j times, the "
                        "second n-j times")
    return parser


_COMMANDS = {
    "reduce-planar": _reduce_planar_command,
    "simplex-ratio": _simplex_ratio_command,
    "mixed-volume": _mixed_volume_command,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS.get(args.command, _experiment_command)
    try:
        return handler(args)
    except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError,
            GodbersenKitError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
