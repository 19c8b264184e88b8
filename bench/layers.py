"""Which library entry points are traced, and the per-layer metrics they give.

Every span name below is `<module>.<entry point>`; a layer metric is that
name plus `.calls` or `.self_s`.  `GUARD` lists, per workload, the spans and
counters that must read a nonzero call count in a traced run: a wrapper that
missed a ``from .x import y`` binding would otherwise read as "no time spent".
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

from tracer import Patches, Tracer, patch_function, patch_method, self_times

# (span name, module, attribute); methods are "Class.method"
SPANS: List[Tuple[str, str, str]] = [
    ("series.mul", "series", "LaurentSeries.__mul__"),
    ("series.add", "series", "LaurentSeries.__add__"),
    ("series.inverse", "series", "LaurentSeries.inverse"),
    ("series.power_rational", "series", "LaurentSeries.power_rational"),
    ("matrices.smat_mul", "matrices", "smat_mul"),
    ("matrices.smat_comm", "matrices", "smat_comm"),
    ("lie.model_build", "lie", "LieModel.__init__"),
    ("lie.model_build", "lie", "LieModel.kostant_data"),
    ("lie.kostant_split", "lie", "LieModel.kostant_split"),
    ("lie.grade_parts", "lie", "LieModel.grade_parts"),
    ("lie.in_model", "lie", "LieModel.in_model"),
    ("gauge.normalize", "gauge", "normalize"),
    ("gauge.gauge_apply", "gauge", "gauge_apply"),
    ("gauge.gauge_compose", "gauge", "gauge_compose"),
    ("gauge.gauge_inverse", "gauge", "gauge_inverse"),
    ("gauge.hitchin_map", "gauge", "hitchin_map"),
    ("kernels.power", "kernels", "BiKernel.power"),
    ("kernels.symmetrize_lift", "kernels", "BiKernel.symmetrize_lift"),
    ("diffops.compose", "diffops", "compose"),
    ("diffops.pseudo_invert", "diffops", "pseudo_invert"),
    ("diffops.pairing", "diffops", "pairing"),
    ("dictionary.oper_from_diffop", "dictionary", "oper_from_diffop"),
    ("dictionary.diffop_from_oper", "dictionary", "diffop_from_oper"),
    ("serialize.loads", "serialize", "loads"),
    ("serialize.dumps", "serialize", "dumps"),
    ("cli.main", "cli", "main"),
]

# counters that are not spans; "with_trunc" counts --trunc-capable commands
COUNTERS = ("series.construct", "cli.with_trunc", "cli.exact_fallback")

GUARD: Dict[str, List[str]] = {
    "gauge-batch": [
        "series.mul", "series.add", "series.construct", "matrices.smat_mul",
        "matrices.smat_comm", "lie.kostant_split", "lie.grade_parts", "lie.in_model",
        "lie.model_build", "gauge.normalize", "gauge.gauge_apply", "gauge.gauge_compose",
        "gauge.gauge_inverse", "gauge.hitchin_map",
    ],
    "operators": [
        "series.inverse", "series.power_rational", "kernels.power",
        "kernels.symmetrize_lift", "diffops.compose", "diffops.pseudo_invert",
        "diffops.pairing", "dictionary.oper_from_diffop", "dictionary.diffop_from_oper",
    ],
    "cli-pipeline": [
        "lie.model_build", "dictionary.oper_from_diffop", "dictionary.diffop_from_oper",
        "serialize.loads", "serialize.dumps", "cli.main", "cli.with_trunc",
    ],
}


def _resolve(module: str, attr: str):
    mod = importlib.import_module(f"opercalc.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return mod, getattr(mod, cls_name), meth
    return mod, None, attr


def _zero_operands(args, result, tracer: Tracer):
    """A product with a factor that has no nonzero certified coefficient."""
    a, b = args  # a is the series; b a series or a scalar (also via __rmul__)
    if a.is_zero() or (b.is_zero() if hasattr(b, "is_zero") else b == 0):
        tracer.counters["series.mul.zero_operand"] += 1


def _zero_entries(args, result, tracer: Tracer):
    a, b = args
    entries = [x for m in (a, b) for row in m for x in row]
    tracer.counters["matrices.smat_mul.entries"] += len(entries)
    tracer.counters["matrices.smat_mul.zero_entries"] += sum(1 for x in entries if x.is_zero())


def _text_bytes(counter: str, pick):
    def count(args, result, tracer: Tracer):
        tracer.counters[counter] += len(pick(args, result).encode("utf-8"))
    return count


_COUNT_HOOKS = {
    "series.mul": _zero_operands,
    "matrices.smat_mul": _zero_entries,
    "serialize.loads": _text_bytes("serialize.bytes_read", lambda args, result: args[0]),
    "serialize.dumps": _text_bytes("serialize.bytes_written", lambda args, result: result),
}


def install(tracer: Tracer) -> Patches:
    """Wrap every entry point in SPANS and COUNTERS; returns the applied Patches."""
    import opercalc.cli  # noqa: F401  (load every module before scanning bindings)

    patches = Patches()
    for name, module, attr in SPANS:
        mod, cls, key = _resolve(module, attr)
        hook = _COUNT_HOOKS.get(name)
        count = None if hook is None else (lambda a, r, h=hook: h(a, r, tracer))
        if cls is None:
            patch_function(patches, mod, key, tracer.wrap(name, getattr(mod, key), count))
        else:
            patch_method(patches, cls, key, tracer.wrap(name, cls.__dict__[key], count))

    series = _resolve("series", "LaurentSeries.__init__")[1]
    patch_method(patches, series, "__init__",
                 tracer.counting("series.construct", series.__dict__["__init__"]))

    cli = opercalc.cli
    with_trunc = cli._with_trunc

    def counted_with_trunc(fn, trunc):
        def attempt(t):
            if t is not None:
                tracer.counters["cli.exact_fallback"] += 1
            return fn(t)
        return with_trunc(attempt, trunc)

    patch_function(patches, cli, "_with_trunc",
                   tracer.counting("cli.with_trunc", counted_with_trunc))
    return patches


def layer_metrics(tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer metrics from the recorded spans and counters, plus call counts."""
    selfs = self_times(tracer.start_col, tracer.end_col, tracer.parent_col)
    calls: Dict[str, int] = {name: 0 for name, _, _ in SPANS}
    self_ns: Dict[str, int] = {name: 0 for name, _, _ in SPANS}
    names = tracer.names
    for nid, s in zip(tracer.name_col, selfs):
        name = names[nid]
        if name in calls:
            calls[name] += 1
            self_ns[name] += s
    for counter in COUNTERS:
        calls[counter] = tracer.counters[counter]

    c = tracer.counters
    out: Dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
    for name, ns in self_ns.items():
        out[f"{name}.self_s"] = ns / 1e9
    out["series.mul.zero_operand_ratio"] = _ratio(c["series.mul.zero_operand"], calls["series.mul"])
    out["matrices.smat_mul.zero_entry_ratio"] = _ratio(
        c["matrices.smat_mul.zero_entries"], c["matrices.smat_mul.entries"])
    out["serialize.bytes_read"] = c["serialize.bytes_read"]
    out["serialize.bytes_written"] = c["serialize.bytes_written"]
    out["cli.exact_fallback_ratio"] = _ratio(c["cli.exact_fallback"], c["cli.with_trunc"])
    return out, calls


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def guard(workload: str, calls: Dict[str, int]) -> List[str]:
    """Names mapped to `workload` that read zero calls (empty when all is well)."""
    return [name for name in GUARD[workload] if calls.get(name, 0) == 0]
