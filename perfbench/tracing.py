"""Per-layer tracing from outside the package.

Wrappers are installed on the names that callers actually look up: a module
attribute is replaced in every ``germfield`` module (and in the benchmark's
own) that holds the same function object, a method is replaced on its class,
and blowup's ``sympy`` global is swapped for a proxy whose ``gcd`` and
``factor_list`` are wrapped.  Each wrapped call records a span (name, start,
end, parent) in memory and adds to per-name counters; self time is a span's
duration minus that of its child spans.  Work done by the wrappers' own hooks
(counting matrix entries, say) is charged to nobody: it is added to the
parent's child time.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span id, child seconds, name]
        self.stats: dict = defaultdict(float)
        self.rounds: list[dict] = []
        self.patched: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def new_round(self):
        self.stats = defaultdict(float)
        self.rounds.append(self.stats)

    def _excluded(self, seconds):
        if self.stack:
            self.stack[-1][1] += seconds

    def wrap(self, name, fn, before=None, after=None, span=True):
        """A traced stand-in for fn; before(args) and after(args, result) add counters."""
        tracer = self
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        if name_id == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            stats = tracer.stats
            if before is not None:
                h0 = perf()
                before(stats, args)
                tracer._excluded(perf() - h0)
            stats[name + ".calls"] += 1
            if not span:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            sid = len(tracer.span_start)
            frame = [sid, 0.0, name]
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tracer.span_start[sid] = t0
                tracer.span_end[sid] = t1
                stats[name + ".self_s"] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if after is not None:
                h0 = perf()
                after(stats, args, result)
                tracer._excluded(perf() - h0)
            return result

        traced.__wrapped__ = fn
        return traced

    def ancestors(self):
        return [frame[2] for frame in self.stack]

    # -- installing -----------------------------------------------------------

    def patch_function(self, module, attr, name, **hooks):
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **hooks)
        for mod in list(sys.modules.values()):
            if mod is None or not _ours(mod):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patched.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attrs, name, **hooks):
        for attr in attrs:
            original = cls.__dict__[attr]
            self.patched.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, **hooks))

    def patch_attr(self, owner, attr, value):
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    # -- output ---------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as out:
            out.write("name\tstart_s\tend_s\tparent\n")
            for k in range(len(self.span_start)):
                out.write(
                    f"{self.names[self.span_name[k]]}\t{self.span_start[k]:.9f}\t"
                    f"{self.span_end[k]:.9f}\t{self.span_parent[k]}\n"
                )


def _ours(mod) -> bool:
    name = getattr(mod, "__name__", "")
    return name.startswith("germfield") or name in ("workloads", "__main__")


class _SympyProxy:
    """Stands in for blowup's ``sympy`` global; only gcd and factor_list are traced."""

    def __init__(self, real, gcd, factor_list):
        self._real = real
        self.gcd = gcd
        self.factor_list = factor_list

    def __getattr__(self, attr):  # called once per name; later lookups hit the cache
        value = getattr(self._real, attr)
        setattr(self, attr, value)
        return value


# -- the layer hooks ---------------------------------------------------------------


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _rref_before(stats, args):
    rows, ncols = args[0], args[1]
    stats["linalg.rref.rows"] += len(rows)
    stats["linalg.rref.cols"] += ncols
    stats["linalg.rref.nonzeros"] += sum(1 for row in rows for v in row if v.re or v.im)


def _rref_after(stats, args, result):
    red, pivots = result
    stats["linalg.rref.rank"] += len(pivots)
    top = stats["linalg.rref.max_coeff_bits"]
    for row in red:
        for v in row:
            if v.re or v.im:
                b = max(_bits(v.re), _bits(v.im))
                if b > top:
                    top = b
    stats["linalg.rref.max_coeff_bits"] = top


def _ratio_hook(key, useful):
    def after(stats, args, result):
        if useful(result):
            stats[key] += 1

    return after


def _mul_before(stats, args):
    self, other = args[0], args[1]
    other_terms = getattr(other, "terms", None)
    stats["series.mul.term_pairs"] += len(self.terms) * (len(other_terms) if other_terms is not None else 1)


def install(tracer: Tracer):
    """Wrap every traced layer; returns the tracer for chaining."""
    from germfield import blowup, centralizer, cli, fields, integrability, linalg, parsing, series

    pf = tracer.patch_function
    pf(linalg, "rref", "linalg.rref", before=_rref_before, after=_rref_after)
    pf(linalg, "nullspace", "linalg.nullspace")
    pf(linalg, "in_span", "linalg.in_span",
       after=_ratio_hook("linalg.in_span.useful", lambda r: r is False))
    pf(linalg, "solve", "linalg.solve")
    tracer.patch_method(series.PolySeries, ("__mul__", "__rmul__"), "series.mul", before=_mul_before)
    tracer.patch_method(series.PolySeries, ("substitute",), "series.substitute")
    pf(fields, "lie_bracket", "fields.lie_bracket")
    tracer.patch_method(fields.VectorFieldJet, ("apply",), "fields.apply")
    pf(fields, "wedge", "fields.wedge")

    def hidden(stats, args):
        if "centralizer.ad_kernel" in tracer.ancestors():
            stats["centralizer.hidden_first_integral.calls"] += 1

    pf(centralizer, "ad_kernel", "centralizer.ad_kernel")
    pf(centralizer, "first_integral_kernel", "centralizer.first_integral_kernel", before=hidden)
    pf(centralizer, "generic_rank", "centralizer.generic_rank")

    pf(blowup, "resolve", "blowup.resolve")
    pf(blowup, "_resolve_node", "blowup.resolve.node", span=False)
    for fn in ("strict_transform", "divisor_singularities", "translate_to_point", "gaussian_roots"):
        pf(blowup, fn, f"blowup.{fn}")
    pf(blowup, "is_isolated_singularity", "blowup.is_isolated_singularity",
       after=_ratio_hook("blowup.is_isolated_singularity.useful", lambda r: r is False))
    real = blowup.sympy
    tracer.patch_attr(blowup, "sympy", _SympyProxy(
        real,
        tracer.wrap("blowup.sympy_gcd", real.gcd),
        tracer.wrap("blowup.sympy_factor_list", real.factor_list),
    ))

    pf(integrability, "log_decomposition", "integrability.log_decomposition")
    pf(integrability, "cauchy_riemann_pair", "integrability.cauchy_riemann_pair")

    pf(parsing, "parse_field", "parsing.parse_field")
    for fn in RENDER_FUNCTIONS:
        pf(parsing, fn, "parsing.render")
    pf(cli, "main", "cli.main")
    return tracer


# Everything in parsing that turns a value into text or JSON.
RENDER_FUNCTIONS = (
    "poly_to_text", "field_to_text", "one_form_to_text", "ratio_to_text",
    "poly_to_json", "field_to_json", "one_form_to_json", "gq_to_json", "fraction_str",
)

# Q(i) arithmetic entry points counted as gaussian.ops (in a round of its own,
# since counting every scalar operation would swamp the self times).
GAUSSIAN_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__",
)


def install_gaussian_counter(tracer: Tracer):
    from germfield.gaussian import GaussianRational

    for attr in GAUSSIAN_OPS:
        tracer.patch_method(GaussianRational, (attr,), "gaussian.ops", span=False)


def layer_metrics(traced_rounds: list[dict], count_round: dict) -> dict:
    """Per-round per-layer figures: counts from the first traced round (they
    repeat exactly), self times as the median over traced rounds."""
    import statistics

    first = traced_rounds[0]

    def med(key):
        return statistics.median(r.get(key, 0.0) for r in traced_rounds)

    def count(key):
        return int(first.get(key, 0))

    def ratio(key, calls):
        return first.get(key, 0) / first[calls] if first.get(calls) else 0.0

    out = {}
    for stat in ("calls", "rows", "cols", "nonzeros", "rank", "max_coeff_bits"):
        out[f"linalg.rref.{stat}"] = (count(f"linalg.rref.{stat}"), "count")
    out["linalg.rref.self_s"] = (med("linalg.rref.self_s"), "s")
    out["linalg.nullspace.calls"] = (count("linalg.nullspace.calls"), "count")
    out["linalg.in_span.calls"] = (count("linalg.in_span.calls"), "count")
    out["linalg.in_span.useful_ratio"] = (ratio("linalg.in_span.useful", "linalg.in_span.calls"), "ratio")
    for name in ("linalg.solve", "series.substitute", "fields.lie_bracket", "fields.apply",
                 "fields.wedge", "centralizer.ad_kernel", "centralizer.first_integral_kernel",
                 "centralizer.generic_rank", "blowup.strict_transform",
                 "blowup.divisor_singularities", "blowup.translate_to_point",
                 "blowup.gaussian_roots", "blowup.is_isolated_singularity",
                 "blowup.sympy_gcd", "blowup.sympy_factor_list"):
        out[f"{name}.calls"] = (count(f"{name}.calls"), "count")
        out[f"{name}.self_s"] = (med(f"{name}.self_s"), "s")
    out["series.mul.calls"] = (count("series.mul.calls"), "count")
    out["series.mul.self_s"] = (med("series.mul.self_s"), "s")
    out["series.mul.term_pairs"] = (count("series.mul.term_pairs"), "count")
    out["gaussian.ops"] = (int(count_round.get("gaussian.ops.calls", 0)), "count")
    out["centralizer.hidden_first_integral.calls"] = (count("centralizer.hidden_first_integral.calls"), "count")
    out["blowup.resolve.nodes"] = (count("blowup.resolve.node.calls"), "count")
    out["blowup.is_isolated_singularity.useful_ratio"] = (
        ratio("blowup.is_isolated_singularity.useful", "blowup.is_isolated_singularity.calls"), "ratio")
    for name in ("integrability.log_decomposition", "integrability.cauchy_riemann_pair",
                 "parsing.parse_field", "parsing.render", "cli.main"):
        out[f"{name}.self_s"] = (med(f"{name}.self_s"), "s")
    return out
