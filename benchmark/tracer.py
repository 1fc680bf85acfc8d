"""Span tracing of asymlab's public functions, installed from outside the
package.

`Tracer.install` replaces every public function of the traced modules with
a wrapper, in every ``asymlab`` namespace that holds it (so the
``asymlab.construct.integrate_segment`` binding is wrapped as well as
``asymlab.quadrature.integrate_segment``).  A wrapper records one span per
call -- name, start, end, parent span and op id -- in flat arrays, plus a few
work counters read from arguments and results.  `Tracer.metrics` turns
them into the per-layer metrics.  Self time is a span's duration minus that
of its child spans; busy time counts only the outermost span of a name.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import warnings
from array import array
from collections import Counter

MODULES = ("logcx", "quadrature", "construct", "classic", "geometry", "wos", "growth", "cli")


class Tracer:
    def __init__(self):
        self.names: list = []  # span name table; spans hold indices into it
        self.name_of: array = array("H")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.op: array = array("i")
        self.stack: list = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (innermost span name, exception type)
        self._patches: list = []
        self._warnings = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        pkg = [m for k, m in sorted(sys.modules.items()) if k == "asymlab" or k.startswith("asymlab.")]
        wrappers = {}
        for short in MODULES:
            mod = sys.modules["asymlab." + short]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap("%s.%s" % (short, attr), fn, _HOOKS.get((short, attr))))
        for ns in pkg:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, hit[1])
        # count CancellationWarnings instead of printing them
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        warnings.simplefilter("ignore")
        warnings.simplefilter("always", sys.modules["asymlab.logcx"].CancellationWarning)
        warnings.showwarning = self._count_warning

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()
        if self._warnings is not None:
            self._warnings.__exit__(None, None, None)
            self._warnings = None

    def _count_warning(self, message, category, *rest) -> None:
        self.counts["logcx.cancellation_warnings"] += 1

    def _wrap(self, name: str, fn, hook):
        self.names.append(name)
        nid = len(self.names) - 1
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            result = None
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                if not getattr(exc, "_traced_origin", False):
                    exc._traced_origin = True
                    self.errors[name, type(exc).__name__] += 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
                if hook is not None:
                    hook(self.counts, args, kwargs, result)

        return traced

    # -- aggregation -------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        busy = [0.0] * k
        open_until = [0.0] * k  # end of the latest span of each name
        child = [0.0] * len(self.start)
        in_integral = 0
        carleman = self.names.index("geometry.carleman_integral")
        angular = self.names.index("geometry.angular_measure")
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        for i in range(len(start)):
            nid = name_of[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            # spans are indexed in start order on one thread, so an earlier
            # span still open at our start is an ancestor
            if start[i] >= open_until[nid]:
                busy[nid] += dur
                open_until[nid] = end[i]
            if nid == angular and start[i] < open_until[carleman]:
                in_integral += 1
        by = dict(zip(self.names, range(k)))

        def n_calls(name):
            return calls[by[name]]

        def module_self(mod):
            return sum(s for name, s in zip(self.names, self_s) if name.startswith(mod + "."))

        def errors(mod, exc):
            return sum(v for (name, e), v in self.errors.items() if name.startswith(mod + ".") and e == exc)

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        m = {
            "quadrature.integrate_segment.calls": n_calls("quadrature.integrate_segment"),
            "quadrature.integrate_segment.busy_s": busy[by["quadrature.integrate_segment"]],
            "quadrature.evals": c["quadrature.evals"],
            "quadrature.evals_per_call": ratio(c["quadrature.evals"], n_calls("quadrature.integrate_segment")),
            "quadrature.truncation_radius.calls": n_calls("quadrature.truncation_radius"),
            "quadrature.truncation_radius.busy_s": busy[by["quadrature.truncation_radius"]],
            "quadrature.nonconvergence": errors("quadrature", "QuadratureNonconvergence"),
            "construct.eval_f.calls": n_calls("construct.eval_f"),
            "construct.eval_phi.calls": n_calls("construct.eval_phi"),
            "construct.residual_lc.calls": n_calls("construct.residual_lc"),
            "construct.self_s": module_self("construct"),
            "construct.too_close": errors("construct", "TooCloseToContour"),
            "logcx.lc_add.calls": n_calls("logcx.lc_add"),
            "logcx.lc_mul.calls": n_calls("logcx.lc_mul"),
            "logcx.cancellation_warnings": c["logcx.cancellation_warnings"],
            "classic.eval_dca.calls": n_calls("classic.eval_dca"),
            "classic.beyond_cutoff_frac": ratio(c["classic.beyond_cutoff"], n_calls("classic.eval_dca")),
            "classic.self_s": module_self("classic"),
            "classic.term_cap": errors("classic", "TermCapExceeded"),
            "geometry.angular_measure.calls": n_calls("geometry.angular_measure"),
            "geometry.angular_measure.busy_s": busy[angular],
            "geometry.carleman_integral.calls": n_calls("geometry.carleman_integral"),
            "geometry.carleman_integral.busy_s": busy[carleman],
            "geometry.angular_calls_per_integral": ratio(in_integral, n_calls("geometry.carleman_integral")),
            "geometry.degenerate_retries": errors("geometry", "DegenerateRadiusError"),
            "geometry.point_in_domain.calls": n_calls("geometry.point_in_domain"),
            "wos.estimate.calls": n_calls("wos.estimate_harmonic_measure"),
            "wos.walks": c["wos.walks"],
            "wos.busy_s": busy[by["wos.estimate_harmonic_measure"]],
            "wos.walks_per_s": ratio(c["wos.walks"], busy[by["wos.estimate_harmonic_measure"]]),
            "wos.truncated_walks": c["wos.truncated_walks"],
            "growth.max_on_circle.calls": n_calls("growth.max_on_circle"),
            "growth.max_on_circle.self_s": self_s[by["growth.max_on_circle"]],
            "growth.probes": c["growth.probes"],
            "growth.probes_per_scan": ratio(c["growth.probes"], c["growth.scans"]),
            "growth.fit_order.busy_s": busy[by["growth.fit_order"]],
            "cli.main.calls": n_calls("cli.main"),
            "cli.main.busy_s": busy[by["cli.main"]],
            "cli.nonzero_exits": c["cli.nonzero_exits"],
        }
        return m


# Work counters read at the layer boundary: (counts, args, kwargs, result);
# result is None when the call raised.

def _quad(c, args, kwargs, res):
    if res is not None:
        c["quadrature.evals"] += res.evaluations


def _scan(c, args, kwargs, res):
    if res is not None:
        c["growth.probes"] += res.samples_used
        c["growth.scans"] += 1


def _dca(c, args, kwargs, res):
    z, cfg = args[0], args[1]
    path = kwargs.get("path", args[3] if len(args) > 3 else None)
    if path is None and abs(z) > cfg.series_cutoff_radius:
        c["classic.beyond_cutoff"] += 1


def _wos(c, args, kwargs, res):
    if res is not None:
        cfg = args[4] if len(args) > 4 else kwargs["cfg"]
        c["wos.walks"] += cfg.n_walks
        c["wos.truncated_walks"] += res.truncated_walks


def _exit(c, args, kwargs, res):
    if res != 0:
        c["cli.nonzero_exits"] += 1


_HOOKS = {
    ("quadrature", "integrate_segment"): _quad,
    ("growth", "max_on_circle"): _scan,
    ("classic", "eval_dca"): _dca,
    ("wos", "estimate_harmonic_measure"): _wos,
    ("cli", "main"): _exit,
}
