"""Per-layer tracing of opilab, installed from outside the package.

`Tracer.install` wraps opilab's public functions and patches every opilab
module attribute (and `QuadExt` class attribute) that is bound to one of
the originals, so names imported with `from .codes import ...` and the
`lru_cache` object behind `kravchuk.build_family` are traced too.
`Tracer.uninstall` puts every original back.

Each wrapped call records a span (id, parent id, name, op index, start,
end) in memory; self time is the span's duration minus the time its child
spans cover.  Hot helpers, whose per-call work is smaller than a span's
cost, are counted but not timed, so their time stays in the caller's self
time.  `dual_codewords` is a generator: each `next()` on it is one span,
and one call is one pass over the dual code.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "verify", "rates", "kravchuk", "discrepancy", "codes", "leakage", "quadext")

# Only the entry point of `cli` is timed, so that its self time is the
# parsing and JSON/CSV emission around the layer calls.
SPANNED_ONLY = {"cli": ("main",)}

# Called often enough (10^4 to 10^7 times per pass) that a span per call
# would dominate the traced run.
COUNTED = {
    "rates": ("binary_entropy", "pair_count_exponent", "semicircle_law", "feasible",
              "delta_cap", "lambda_star", "dual_sum_exponent_avg",
              "dual_sum_exponent_green", "dual_sum_exponent_best",
              "dual_sum_exponent_biased", "tau_derivative_factor"),
    "kravchuk": ("poly_trim", "poly_add", "poly_scale", "poly_mul", "poly_eval",
                 "poly_derivative", "binomial_weight"),
    "quadext": ("r_sq_of", "one", "zero", "r_of", "sqrt_rho_one_minus_rho", "beta_of",
                "beta_abs_of"),
}
COUNTED_METHODS = ("__mul__", "__add__")  # of quadext.QuadExt


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Spans and counts for one benchmark pass."""

    def __init__(self):
        self.op = -1
        self.spans = []  # (id, parent id, name, op, start, end)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, self_s, total_s
        self.counts = defaultdict(int)
        self.window_keys = []
        self.budget_share_max = 0.0
        self._stack = []  # [span id, start, child time, name]
        self._depth = defaultdict(int)
        self._next_id = 0
        self._patches = []
        self._cache_start = None
        self.patched = 0  # attributes patched by install

    # ---------- install / uninstall ----------

    def install(self) -> None:
        from opilab import codes, kravchuk, quadext

        self._budget = codes.enumeration_budget
        self._build_family = kravchuk.build_family
        self._cache_start = kravchuk.build_family.cache_info()
        derive = {
            "codes.brute_force_opi": self._derive_brute_force,
            "codes.dual_codewords": self._derive_dual_pass,
            "discrepancy.expected_sampled_satisfaction": self._derive_window_key,
        }
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"opilab.{layer}"]
            counted = COUNTED.get(layer, ())
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if layer in SPANNED_ONLY and attr not in SPANNED_ONLY[layer]:
                    continue
                name = f"{layer}.{attr}"
                if attr in counted:
                    wrapper = self._counted(name, obj)
                elif inspect.isgeneratorfunction(obj):
                    wrapper = self._generator(name, obj, derive.get(name))
                else:
                    wrapper = self._spanned(name, obj, derive.get(name))
                wrappers[id(obj)] = (obj, wrapper)
        for meth in COUNTED_METHODS:
            obj = vars(quadext.QuadExt)[meth]
            wrappers[id(obj)] = (obj, self._counted(f"quadext.QuadExt.{meth.strip('_')}", obj))

        owners = [m for n, m in sorted(sys.modules.items())
                  if n == "opilab" or n.startswith("opilab.")]
        owners.append(quadext.QuadExt)
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(owner, attr, hit[1])
                    self._patches.append((owner, attr, obj))
        self.patched = len(self._patches)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()
        info = self._build_family.cache_info()
        self.counts["build_family.hits"] = info.hits - self._cache_start.hits
        self.counts["build_family.misses"] = info.misses - self._cache_start.misses

    # ---------- wrappers ----------

    def _counted(self, name, orig):
        stats = self.stats

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            stats[name][0] += 1
            return orig(*args, **kwargs)

        return counted

    def _begin(self, name):
        self._next_id += 1
        self._depth[name] += 1
        frame = [self._next_id, time.perf_counter(), 0.0, name]
        self._stack.append(frame)
        return frame

    def _end(self, frame, calls):
        end = time.perf_counter()
        self._stack.pop()
        span_id, start, child, name = frame
        dur = end - start
        stat = self.stats[name]
        stat[0] += calls
        stat[1] += dur - child
        self._depth[name] -= 1
        if self._depth[name] == 0:
            stat[2] += dur  # outermost call only, so recursion is not double counted
        parent = self._stack[-1][0] if self._stack else 0
        if self._stack:
            self._stack[-1][2] += dur
        self.spans.append((span_id, parent, name, self.op, start, end))

    def _spanned(self, name, orig, derive):
        @functools.wraps(orig)
        def spanned(*args, **kwargs):
            if derive is not None:
                derive(args, kwargs)
            frame = self._begin(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self._end(frame, 1)

        return spanned

    def _generator(self, name, orig, derive):
        @functools.wraps(orig)
        def generator(*args, **kwargs):
            if derive is not None:
                derive(args, kwargs)
            self.stats[name][0] += 1
            return self._timed_steps(name, orig(*args, **kwargs))

        return generator

    def _timed_steps(self, name, gen):
        while True:
            frame = self._begin(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._end(frame, 0)
            yield item

    # ---------- counts derived from call arguments ----------

    def _share(self, size, budget):
        self.budget_share_max = max(self.budget_share_max, size / self._budget(budget))

    def _derive_brute_force(self, args, kwargs):
        code = _arg(args, kwargs, 0, "code")
        size = code.p ** code.n
        self.counts["brute_force.elements"] += size
        self._share(size, _arg(args, kwargs, 2, "budget"))

    def _derive_dual_pass(self, args, kwargs):
        code = _arg(args, kwargs, 0, "code")
        size = code.p ** (code.m - code.n)
        self.counts["dual.codewords"] += size
        self._share(size, _arg(args, kwargs, 1, "budget"))

    def _derive_window_key(self, args, kwargs):
        code = _arg(args, kwargs, 0, "code")
        lists = _arg(args, kwargs, 1, "lists")
        spec = _arg(args, kwargs, 2, "spec")
        self.window_keys.append((code.m, lists.rho, spec.ell, spec.sigma,
                                 spec.weight_mode, spec.rational_weights))

    # ---------- results ----------

    def layer_metrics(self, run_s: float, ops: int) -> dict:
        """The per-layer metric values of this pass, by metric name."""
        out = {}

        def fn(name, *fields):
            calls, self_s, total_s = self.stats.get(name, (0, 0.0, 0.0))
            values = {"calls": calls, "self_s": self_s, "total_s": total_s}
            for field in fields:
                out[f"{name}.{field}"] = values[field]

        for name in ("rates.thresholds", "rates.delta_max", "rates.pair_count_exponent_biased",
                     "rates.golden_section_max", "kravchuk.build_family",
                     "kravchuk.kravchuk_coeffs", "kravchuk.isolate_roots",
                     "kravchuk.largest_root", "kravchuk.smallest_root",
                     "kravchuk.principal_representation", "kravchuk.interlacing_check",
                     "discrepancy.expected_sampled_satisfaction",
                     "discrepancy.weighted_triple_count", "discrepancy.discrepancy_from_count",
                     "discrepancy.expected_discrepancy_exact",
                     "discrepancy.expected_discrepancy_fourier", "leakage.per_transcript_sum"):
            fn(name, "calls", "self_s", "total_s")
        fn("rates.binary_entropy", "calls")
        fn("leakage.llr_rate_threshold", "total_s")
        fn("kravchuk.poly_mul", "calls")
        fn("quadext.QuadExt.mul", "calls")
        fn("quadext.QuadExt.add", "calls")
        fn("codes.brute_force_opi", "self_s")
        fn("codes.dual_codewords", "self_s")
        fn("cli.main", "self_s")
        fn("verify.run_suite", "total_s")

        hits = self.counts["build_family.hits"]
        lookups = hits + self.counts["build_family.misses"]
        out["kravchuk.build_family.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        keys = self.window_keys
        out["discrepancy.window_key_repeat_share"] = (
            1.0 - len(set(keys)) / len(keys) if keys else 0.0
        )
        elements = self.counts["brute_force.elements"]
        bf_self = out["codes.brute_force_opi.self_s"]
        out["codes.brute_force_opi.elements"] = elements
        out["codes.brute_force_opi.elements_per_s"] = elements / bf_self if bf_self else 0.0
        passes = self.stats.get("codes.dual_codewords", (0,))[0]
        out["codes.dual_codewords.passes"] = passes
        out["codes.dual_codewords.codewords"] = self.counts["dual.codewords"]
        out["codes.dual_passes_per_op"] = passes / ops if ops else 0.0
        out["codes.budget_share_max"] = self.budget_share_max
        for layer in LAYERS:
            if layer == "quadext":
                continue  # counted, never timed: its time is in the calling layer
            self_s = sum(s[1] for n, s in self.stats.items() if n.split(".")[0] == layer)
            out[f"{layer}.share"] = self_s / run_s if run_s else 0.0
        return out

    def write_spans(self, path) -> None:
        """All spans of the pass as JSON: names are interned in `names`."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "parent", "name", "op", "start", "end"],
                "names": names,
                "spans": [[s[0], s[1], index[s[2]], s[3], round(s[4], 7), round(s[5], 7)]
                          for s in self.spans],
                "stats": {n: list(v) for n, v in sorted(self.stats.items())},
            }, fh, separators=(",", ":"))
