"""Spans and counts at kypcert's layer boundaries, recorded from outside.

Each traced function is replaced by a wrapper under every name it is looked
up by: the defining module, each kypcert module that imported it (for
example ``kypcert.classes.evaluate_grid`` as well as
``kypcert.realization.evaluate_grid``) and the package namespace. Spans
(name, start, end, parent, pass, job, ok, note) stay in memory until the run
ends. ``numpy.linalg.eigvals`` is wrapped too, but only calls made inside a
kypcert span are recorded.
"""

import statistics
import sys
from collections import Counter
from time import perf_counter

import numpy.linalg

LAYERS = (
    ("realization", "evaluate_grid"),
    ("realization", "poles"),
    ("realization", "pbh_test"),
    ("realization", "balance"),
    ("hermat", "solve_lyapunov"),
    ("qmi", "class_form"),
    ("classes", "sweep_membership"),
    ("classes", "_batched_slack"),
    ("classes", "beta_max"),
    ("classes", "t_ray_max"),
    ("classes", "sp_margin"),
    ("kyp", "find_certificate"),
    ("kyp", "_care_extremal"),
    ("kyp", "_spectral_ascent"),
    ("kyp", "kyp_slack_matrix"),
    ("kyp", "invert_with_certificate"),
    ("reduction", "truncate_balanced"),
)
EIGVALS = "linalg.eigvals"
SWEEP = "classes.sweep_membership"
SEARCH = "kyp.find_certificate"
ASCENT = "kyp._spectral_ascent"


def _note(name, args, result):
    """Per-span detail: points evaluated, or which path gave a certificate."""
    if name == "realization.evaluate_grid":
        return int(numpy.asarray(args[1]).size)
    if name == SEARCH and result is not None:
        return result.method
    return None


class Tracer:
    """Wraps kypcert's layers while installed and keeps their spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.context = (None, None)

    def _wrap(self, name, fn, only_nested=False):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if only_nested and not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok, result = False, None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, *self.context, ok,
                              _note(name, args, result))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every traced name in every loaded kypcert module."""
        mods = [m for key, m in sys.modules.items() if key == "kypcert" or key.startswith("kypcert.")]
        for modname, attr in LAYERS:
            orig = getattr(sys.modules[f"kypcert.{modname}"], attr)
            wrapper = self._wrap(f"{modname}.{attr}", orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        orig = numpy.linalg.eigvals
        self._patched.append((numpy.linalg, "eigvals", orig))
        numpy.linalg.eigvals = self._wrap(EIGVALS, orig, only_nested=True)

    def uninstall(self):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def _ancestors(self, i):
        p = self.spans[i][3]
        while p >= 0:
            yield self.spans[p][0]
            p = self.spans[p][3]

    def pass_counts(self):
        """Per pass: calls, failures, inclusive and self milliseconds per layer,
        points evaluated, and the nested counts the layer metrics need."""
        per = {}
        child_time = [0.0] * len(self.spans)
        for i, (name, start, end, parent, *_rest) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
        ascent_searches = set()
        for i, (name, start, end, parent, pss, job, ok, note) in enumerate(self.spans):
            c = per.setdefault(pss, Counter())
            anc = list(self._ancestors(i))
            c[name + ".calls"] += 1
            if not ok:
                c[name + ".failures"] += 1
            if name not in anc:  # nested calls of one layer count once in its time
                c[name + ".ms"] += 1e3 * (end - start)
            c[name + ".self_ms"] += 1e3 * (end - start - child_time[i])
            if name == "realization.evaluate_grid":
                c[name + ".points"] += note
            if name == EIGVALS and SWEEP in anc:
                c["eigvals_in_sweeps"] += 1
            if name == SWEEP:
                for owner in ("classes.beta_max", "classes.t_ray_max", "classes.sp_margin"):
                    if owner in anc:
                        c[owner + ".sweeps"] += 1
            if name == ASCENT:
                p = parent
                while p >= 0 and self.spans[p][0] != SEARCH:
                    p = self.spans[p][3]
                if p >= 0:
                    ascent_searches.add(p)
        for p in ascent_searches:
            c = per[self.spans[p][4]]
            c["ascent_runs"] += 1
            if self.spans[p][7] == "spectral-ascent":
                c["ascent_certificates"] += 1
        return per

    def layer_metrics(self):
        """Median over passes of each per-layer metric (counts repeat exactly)."""
        per = self.pass_counts()

        def med(f):
            return statistics.median(f(c) for c in per.values()) if per else 0.0

        def ratio(num, den):
            return lambda c: c[num] / c[den] if c[den] else 0.0

        m = {}
        for key in ("realization.evaluate_grid.calls", "realization.evaluate_grid.points",
                    "realization.poles.calls", "hermat.solve_lyapunov.calls",
                    "qmi.class_form.calls", "classes.sweep_membership.calls",
                    "kyp.find_certificate.calls", "kyp._care_extremal.calls",
                    "kyp._care_extremal.failures", "kyp._spectral_ascent.calls",
                    "kyp.kyp_slack_matrix.calls"):
            m[key] = (med(lambda c: c[key]), "count")
        for key in ("realization.evaluate_grid.ms", "realization.pbh_test.ms",
                    "realization.balance.ms", "hermat.solve_lyapunov.ms", "qmi.class_form.ms",
                    "classes.sweep_membership.ms", "classes._batched_slack.ms",
                    "kyp.find_certificate.ms", "kyp._care_extremal.ms",
                    "kyp._spectral_ascent.ms", "reduction.truncate_balanced.ms"):
            m[key] = (med(lambda c: c[key]), "ms")
        m["linalg.eigvals_per_sweep"] = (med(ratio("eigvals_in_sweeps", SWEEP + ".calls")), "count")
        for owner in ("classes.beta_max", "classes.t_ray_max", "classes.sp_margin"):
            m[owner + ".sweeps_per_call"] = (med(ratio(owner + ".sweeps", owner + ".calls")), "count")
        m["kyp.ascent_certificates_per_run"] = (
            med(ratio("ascent_certificates", "ascent_runs")), "ratio")
        return m

    def per_size(self, sizes):
        """Median milliseconds per call of each layer, by the (n, m) of the job."""
        samples = {}
        for name, start, end, _parent, _pss, job, _ok, _note in self.spans:
            if name != EIGVALS and job in sizes:
                key = "n={},m={}".format(*sizes[job])
                samples.setdefault(key, {}).setdefault(name, []).append(1e3 * (end - start))
        return {key: {name: statistics.median(v) for name, v in sorted(layers.items())}
                for key, layers in sorted(samples.items())}

    def dump(self, sizes):
        """Spans, per-pass counts and per-size times as JSON-ready data."""
        return {
            "fields": ["name", "start", "end", "parent", "pass", "job", "ok", "note"],
            "spans": self.spans,
            "per_pass": {str(k): dict(v) for k, v in self.pass_counts().items()},
            "per_size_ms_per_call": self.per_size(sizes),
        }
