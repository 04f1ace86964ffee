"""Arithmetic that turns a run record into metrics. Pure Python, no Spark.

A run record is the JSON that `nrpbench.Main` writes: raw timing samples,
quality figures, attempt counts and (in traced runs) spans with counters.
"""

import math
import statistics


def median(xs):
    return statistics.median(xs)


def percentile_with_ten_beyond(xs, candidates=(99, 95, 90, 75)):
    """The highest candidate percentile with at least ten samples above it.

    Returns (percentile, nearest-rank value), or None when there are too few
    samples for even the lowest candidate.
    """
    ordered = sorted(xs)
    n = len(ordered)
    for p in candidates:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def failed_frac(failed, attempted):
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return failed / attempted


def step_time(t_l1, t_one, l1):
    """Cost of one ApproxPPR transition step: (T(l1) - T(1)) / (l1 - 1)."""
    if l1 < 2:
        raise ValueError("a step time needs l1 >= 2")
    return (t_l1 - t_one) / (l1 - 1)


def duration_s(span):
    return (span["end_ns"] - span["start_ns"]) / 1e9


def self_time_s(span, spans):
    """The span's duration minus the part of its interval its children cover."""
    children = sorted(
        (max(c["start_ns"], span["start_ns"]), min(c["end_ns"], span["end_ns"]))
        for c in spans if c["parent"] == span["id"])
    covered, reach = 0, span["start_ns"]
    for start, end in children:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return (span["end_ns"] - span["start_ns"] - covered) / 1e9


# Passes before this index warm up the JIT for reweighting and evaluation.
WARM_FROM = 2


def end_to_end(record):
    """Untraced metrics: set-up and warm pass timings as medians, quality from the first pass.

    Returns (metrics, sample counts, tail percentiles). A tail is reported
    only where the passes leave at least ten samples beyond it.
    """
    passes = [p for p in record["passes"] if not p["traced"]]
    warm = [p for p in passes if p["index"] >= WARM_FROM]
    out, samples, tails = {}, {}, {}
    if record["setup_s"]:
        out["setup_s"] = median(record["setup_s"])
        samples["setup_s"] = len(record["setup_s"])
    if record.get("first_embed_s") is not None:
        out["first_embed_s"] = record["first_embed_s"]
        samples["first_embed_s"] = 1
    for key in ("reweight_s", "evaluate_s"):
        values = [p[key] for p in warm]
        if values:
            out[key] = median(values)
            samples[key] = len(values)
            tail = percentile_with_ten_beyond(values)
            if tail:
                tails[f"{key}_p{tail[0]}"] = tail[1]
    if passes:
        out["lp_auc"] = passes[0]["lp_auc"]
        out["recon_prec_10000"] = passes[0]["recon_prec"]["10000"]
        out["nc_micro_f1"] = passes[0]["nc_micro_f1"]
    out["heap_peak_mb"] = record["heap_peak_mb"]
    return out, samples, tails


def _named(spans, name):
    return [s for s in spans if s["name"] == name]


def _one(spans, name):
    found = _named(spans, name)
    if not found:
        raise KeyError(f"no span named {name}")
    return found[-1]


def per_layer(record):
    """Traced metrics, each from the spans around one layer's entry point."""
    spans = record["spans"]
    env = record["env"]
    out = {}

    bksvd = _one(spans, "svd.bksvd")
    out["svd.bksvd_s"] = duration_s(bksvd)
    out["svd.krylov_q"] = env["krylov_q"]
    out["svd.spmm_calls"] = 2 * env["krylov_q"]
    for key in ("stages", "tasks", "task_busy_s", "shuffle_mb", "gc_s"):
        out[f"svd.{key}"] = bksvd["counters"][key]

    out["core.nrp_s"] = duration_s(_one(spans, "core.nrp"))
    full = _one(spans, "core.approxppr")
    one = _one(spans, "core.approxppr_l1_1")
    l1 = env["l1"]
    out["core.approxppr_s"] = duration_s(full)
    out["core.step_s"] = step_time(duration_s(full), duration_s(one), l1)
    out["core.step_stages"] = step_time(full["counters"]["stages"], one["counters"]["stages"], l1)
    out["core.step_shuffle_mb"] = step_time(full["counters"]["shuffle_mb"], one["counters"]["shuffle_mb"], l1)
    reweights = _named(spans, "core.reweight")
    out["core.reweight_s"] = median([duration_s(s) for s in reweights])
    out["core.reweight_gc_s"] = median([s["counters"]["gc_s"] for s in reweights])

    for name in ("lp_auc", "recon", "nc"):
        out[f"eval.{name}_s"] = median([duration_s(s) for s in _named(spans, f"eval.{name}")])
    out["eval.recon_pairs"] = env["recon_pairs"]
    out["eval.split_s"] = duration_s(_one(spans, "eval.split"))

    ingest = _one(spans, "graph.ingest")
    out["graph.ingest_s"] = duration_s(ingest)
    out["graph.m"] = env["m"]
    out["graph.stages"] = ingest["counters"]["stages"]
    out["graph.shuffle_mb"] = ingest["counters"]["shuffle_mb"]

    # Traced and untraced passes alternate in one run and time the same
    # calls the same way; the traced ones also pay for the recorder's
    # counter reads around each layer span.
    def pass_s(traced):
        return median([p["reweight_s"] + p["evaluate_s"] for p in record["passes"]
                       if p["traced"] == traced and p["index"] >= WARM_FROM])
    out["trace.overhead_s"] = pass_s(True) - pass_s(False)
    passes = _named(spans, "pass")
    out["trace.coverage"] = median([1 - self_time_s(p, spans) / duration_s(p) for p in passes])
    return out
