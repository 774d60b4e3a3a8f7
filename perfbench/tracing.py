"""In-memory span tracer that wraps the package's public functions.

Each traced function is wrapped once and the wrapper is bound under every
name that points at the original in any ``godbersen_kit`` module, so calls
made through ``from .polytopes import convex_hull`` in ``harness``,
``simplexes``, ``rs_bodies``, ``planar`` and ``functional`` are all seen.
The package itself is not modified.

A span is (name, start, end, parent), timed with ``time.perf_counter``.
Each thread appends its spans and counters to its own buffer, so the hot
path takes no lock; :meth:`Tracer.spans` joins the buffers when the run
ends.  A span opened on a pool thread with nothing open on that thread
gets the active ``run_experiment`` span as parent.  Self time is a span's
duration minus the time its child spans cover; for ``run_experiment``,
whose children run concurrently on the pool, the union of the child
intervals is subtracted.  Spans are wall time, so on the harness's thread
pool they include time spent waiting for the interpreter lock;
``harness.run_trial.wait_s`` measures that wait.
"""

import functools
import importlib
import pkgutil
import resource
import threading
import time
from array import array
from collections import Counter

import numpy as np

# Layer functions wrapped with a plain span: (module, function).
PLAIN = (
    ("polytopes", "minkowski_sum"),
    ("polytopes", "intersect"),
    ("polytopes", "to_vrep"),
    ("polytopes", "polar_body"),
    ("lp", "feasible_interior"),
    ("lp", "simplex_max"),
    ("mixed", "volume_polynomial"),
    ("simplexes", "simplex_hull_ratio"),
    ("rs_bodies", "verify_KL_inequality"),
    ("rs_bodies", "verify_strange"),
    ("rs_bodies", "verify_ckl_bound"),
    ("functional", "quadrature"),
    ("functional", "sample_function"),
    ("harness", "random_polytope"),
)


def _maxrss_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class _Buffer:
    """Spans and counters of one thread."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []
        self.orphans = []  # (span, root buffer, root span) across threads
        self.counts = Counter()
        self.max_coord_bits = 0
        self.rss_growth = 0
        self.searching = 0
        self.trials = []  # (wall seconds, wall minus thread CPU seconds)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers = []
        self._root = None  # (buffer, span) of the active run_experiment
        self.names = []
        self._ids = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self):
        try:
            return self._local.buffer
        except AttributeError:
            buf = self._local.buffer = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            return buf

    def _open(self, buf, nid):
        idx = len(buf.name)
        if buf.stack:
            buf.parent.append(buf.stack[-1])
        else:
            buf.parent.append(-1)
            if self._root is not None:
                buf.orphans.append((idx,) + self._root)
        buf.name.append(nid)
        buf.end.append(0.0)
        buf.stack.append(idx)
        buf.start.append(time.perf_counter())
        return idx

    @staticmethod
    def _close(buf, idx):
        buf.end[idx] = time.perf_counter()
        buf.stack.pop()

    # -- wrappers ---------------------------------------------------------

    def _plain(self, name, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            idx = self._open(buf, nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(buf, idx)
        return wrapper

    def _by_mode(self, name, fn):
        """Span named ``name.exact`` or ``name.float`` by the first scalar of
        the first argument (a matrix or a point list)."""
        exact_id, float_id = self._id(name + ".exact"), self._id(name + ".float")

        @functools.wraps(fn)
        def wrapper(rows, *args, **kwargs):
            buf = self._buffer()
            is_float = bool(rows) and isinstance(rows[0][0], float)
            idx = self._open(buf, float_id if is_float else exact_id)
            try:
                return fn(rows, *args, **kwargs)
            finally:
                self._close(buf, idx)
        return wrapper

    def _convex_hull(self, fn, coordinate_bits):
        ids = {"exact": self._id("polytopes.convex_hull.exact"),
               "float": self._id("polytopes.convex_hull.float")}

        @functools.wraps(fn)
        def wrapper(points, *args, **kwargs):
            buf = self._buffer()
            points = list(points)
            idx = self._open(buf, ids["exact"])
            result = None
            try:
                result = fn(points, *args, **kwargs)
                return result
            finally:
                self._close(buf, idx)
                if result is not None:
                    mode = result.mode
                    buf.counts["facets_out." + mode] += len(result.facets)
                    if mode == "exact":
                        buf.max_coord_bits = max(buf.max_coord_bits, coordinate_bits(result))
                else:
                    floats = any(isinstance(c, float) for p in points for c in p)
                    mode = "float" if floats else "exact"
                buf.name[idx] = ids[mode]
                buf.counts["points_in." + mode] += len(points)
                if mode == "float" and buf.searching:
                    buf.counts["search_hulls"] += 1
        return wrapper

    def _search(self, fn):
        nid = self._id("harness.minimize_over_translation")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            buf.searching += 1
            idx = self._open(buf, nid)
            try:
                sol = fn(*args, **kwargs)
            finally:
                self._close(buf, idx)
                buf.searching -= 1
            buf.counts["search_evals"] += sol.iterations
            return sol
        return wrapper

    def _reduction(self, fn):
        nid = self._id("planar.reduce_to_triangle")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            idx = self._open(buf, nid)
            try:
                steps = fn(*args, **kwargs)
            finally:
                self._close(buf, idx)
            buf.counts["reduction_steps"] += len(steps)
            return steps
        return wrapper

    def _lambda_difference(self, fn):
        nid = self._id("functional.lambda_difference")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            peak_before = _maxrss_bytes()
            idx = self._open(buf, nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(buf, idx)
                # The largest rise of the process's peak RSS within one call.
                buf.rss_growth = max(buf.rss_growth, _maxrss_bytes() - peak_before)
        return wrapper

    def _run_trial(self, fn):
        nid = self._id("harness.run_trial")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            cpu0 = time.thread_time()
            idx = self._open(buf, nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(buf, idx)
                wall = buf.end[idx] - buf.start[idx]
                buf.trials.append((wall, wall - (time.thread_time() - cpu0)))
        return wrapper

    def _run_experiment(self, fn):
        nid = self._id("harness.run_experiment")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            idx = self._open(buf, nid)
            outer, self._root = self._root, (buf, idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._root = outer
                self._close(buf, idx)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced function in every module of the package."""
        package = importlib.import_module("godbersen_kit")
        modules = [importlib.import_module("godbersen_kit." + info.name)
                   for info in pkgutil.iter_modules(package.__path__)]
        mod = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        bits = mod["polytopes"].coordinate_bits
        targets = [(m, f, functools.partial(self._plain, "%s.%s" % (m, f))) for m, f in PLAIN]
        targets += [
            ("polytopes", "convex_hull", lambda fn: self._convex_hull(fn, bits)),
            ("linalg", "det", functools.partial(self._by_mode, "linalg.det")),
            ("linalg", "hyperplane_through",
             functools.partial(self._by_mode, "linalg.hyperplane_through")),
            ("harness", "minimize_over_translation", self._search),
            ("planar", "reduce_to_triangle", self._reduction),
            ("functional", "lambda_difference", self._lambda_difference),
            ("harness", "run_trial", self._run_trial),
            ("harness", "run_experiment", self._run_experiment),
        ]
        for m, f, make in targets:
            original = getattr(mod[m], f)
            wrapper = make(original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    # -- results ----------------------------------------------------------

    def spans(self):
        """All spans as arrays (name index, start, end, parent index)."""
        offsets, total = {}, 0
        for buf in self._buffers:
            offsets[id(buf)] = total
            total += len(buf.name)
        name = np.concatenate([np.frombuffer(b.name, dtype=np.int32) for b in self._buffers])
        start = np.concatenate([np.frombuffer(b.start) for b in self._buffers])
        end = np.concatenate([np.frombuffer(b.end) for b in self._buffers])
        parent = np.concatenate([
            np.where(p >= 0, p + offsets[id(b)], -1)
            for b in self._buffers for p in [np.frombuffer(b.parent, dtype=np.int32)]])
        for b in self._buffers:
            for idx, root_buf, root_idx in b.orphans:
                parent[offsets[id(b)] + idx] = offsets[id(root_buf)] + root_idx
        return name, start, end, parent

    def self_times(self):
        """Seconds of self time and call count per span name."""
        name, start, end, parent = self.spans()
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        own = dur - child
        for r in np.flatnonzero(name == self._ids["harness.run_experiment"]):
            kids = np.flatnonzero(parent == r)
            covered, reach = 0.0, start[r]
            for i in kids[np.argsort(start[kids])]:
                lo, hi = max(start[i], reach), end[i]
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            own[r] = dur[r] - covered
        seconds = np.bincount(name, weights=own, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return ({n: float(seconds[i]) for i, n in enumerate(self.names)},
                {n: int(calls[i]) for i, n in enumerate(self.names)})

    def metrics(self, trials, output_bytes):
        """Per-layer metrics for ``trials`` traced trials, keyed by name."""
        seconds, calls = self.self_times()
        counts = sum((b.counts for b in self._buffers), Counter())
        out = {}
        for mode in ("exact", "float"):
            hull = "polytopes.convex_hull." + mode
            out[hull + ".calls"] = calls[hull]
            out[hull + ".s"] = seconds[hull]
            out[hull + ".points_in"] = counts["points_in." + mode]
            out[hull + ".facets_out"] = counts["facets_out." + mode]
            for fn in ("linalg.det", "linalg.hyperplane_through"):
                out["%s.%s.calls" % (fn, mode)] = calls["%s.%s" % (fn, mode)]
                out["%s.%s.s" % (fn, mode)] = seconds["%s.%s" % (fn, mode)]
        out["polytopes.convex_hull.exact.max_coord_bits"] = max(
            b.max_coord_bits for b in self._buffers)
        for m, f in PLAIN:
            out["%s.%s.s" % (m, f)] = seconds["%s.%s" % (m, f)]
        for n in ("polytopes.minkowski_sum", "lp.feasible_interior", "lp.simplex_max"):
            out[n + ".calls"] = calls[n]
        out["mixed.volume_polynomial.calls_per_trial"] = calls["mixed.volume_polynomial"] / trials
        for n in ("planar.reduce_to_triangle", "functional.lambda_difference",
                  "harness.minimize_over_translation", "harness.run_experiment"):
            out[n + ".s"] = seconds[n]
        out["planar.reduce_to_triangle.steps"] = counts["reduction_steps"]
        evals = counts["search_evals"]
        out["harness.translation.evals"] = evals
        out["harness.translation.hulls_per_eval"] = counts["search_hulls"] / evals if evals else 0.0
        out["functional.lambda_difference.rss_growth_mb"] = max(
            b.rss_growth for b in self._buffers) / 2**20
        trial_spans = [t for b in self._buffers for t in b.trials]
        walls = sorted(w for w, _ in trial_spans)
        out["harness.run_trial.calls"] = len(walls)
        out["harness.run_trial.s_p50"] = float(np.median(walls))
        # The highest percentile with at least ten samples above it; the
        # maximum when there are fewer than twenty samples.
        out["harness.run_trial.s_tail"] = (
            walls[-1] if len(walls) < 20 else float(np.quantile(walls, 1.0 - 10.0 / len(walls))))
        out["harness.run_trial.wait_s"] = sum(w for _, w in trial_spans)
        out["harness.output_bytes"] = output_bytes
        return out

    def dump(self, path):
        """Write every span: name table, name index, start, end, parent."""
        name, start, end, parent = self.spans()
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end,
                 parent=parent)
