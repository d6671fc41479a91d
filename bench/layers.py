"""Per-layer metrics from the aggregates a traced pass writes.

``tracer.py`` writes, per invocation, ``stats[name|tag] = [calls,
total_s, self_s, elements]`` plus a few whole-process counters.  This
module sums them over a pass and derives the metrics listed in
``PER_LAYER`` (the ``per_layer`` list of BENCHMARK.json).  Metrics marked
exact are counts that must repeat between traced runs of the same code.
"""

from __future__ import annotations

# (name, unit, better, exact)
PER_LAYER = (
    ("finfield.exp_log_tables.builds", "count", "lower", True),
    ("finfield.exp_log_tables.build_s", "s", "lower", False),
    ("finfield.table_mb", "MB", "lower", True),
    ("finfield.v_mul.ns_per_elem.ext", "ns", "lower", False),
    ("finfield.v_add.ns_per_elem.ext", "ns", "lower", False),
    ("finfield.v_neg.ns_per_elem.ext", "ns", "lower", False),
    ("finfield.v_poly.s.ext", "s", "lower", False),
    ("finfield.v_mul.ns_per_elem.prime", "ns", "lower", False),
    ("finfield.v_add.ns_per_elem.prime", "ns", "lower", False),
    ("finfield.v_chi.ns_per_elem.prime", "ns", "lower", False),
    ("finfield.v_poly.s.prime", "s", "lower", False),
    ("finfield.v_elems.ext", "elements", "lower", True),
    ("finfield.v_elems.prime", "elements", "lower", True),
    ("finfield.make_field.built", "count", "lower", True),
    ("finfield.make_field.s", "s", "lower", False),
    ("finfield.classify_conic_encs.calls", "count", "lower", True),
    ("intpoly.eval_field_arrays.s", "s", "lower", False),
    ("intpoly.eval_field.calls", "count", "lower", True),
    ("intpoly.eval_field.s", "s", "lower", False),
    ("varieties.count_affine_brute.s", "s", "lower", False),
    ("varieties.count_biprojective_brute.s", "s", "lower", False),
    ("varieties.count_nonaffine_brute.s", "s", "lower", False),
    ("varieties.brute.points", "count", "lower", True),
    ("varieties.brute.ns_per_point", "ns", "lower", False),
    ("varieties.singular_locus.s", "s", "lower", False),
    ("varieties.is_singular_point.calls", "count", "lower", True),
    ("varieties.singular.hit_ratio", "ratio", "higher", True),
    ("fibercount.fiberwise_totals.calls", "count", "lower", True),
    ("fibercount.scans", "count", "lower", True),
    ("fibercount.cache_hit_ratio", "ratio", "higher", True),
    ("fibercount.fibers", "count", "lower", True),
    ("fibercount.fiberwise_totals.self_s", "s", "lower", False),
    ("fibercount.ns_per_fiber", "ns", "lower", False),
    ("fibercount.classify_fiber.calls", "count", "lower", True),
    ("fibercount.classify_fiber.s", "s", "lower", False),
    ("fibercount.count_formula.calls", "count", "lower", True),
    ("localzeta.recover_factors.calls", "count", "lower", True),
    ("localzeta.recover_factors.s", "s", "lower", False),
    ("localzeta.local_zeta_closed_form.calls", "count", "lower", True),
    ("globalzeta.verify_global.s", "s", "lower", False),
    ("globalzeta.counts_for_space.s", "s", "lower", False),
    ("globalzeta.euler_factor.calls", "count", "lower", True),
    ("globalzeta.pool.workers", "count", "higher", True),
    ("globalzeta.pool.busy_frac", "ratio", "higher", False),
    ("specialvalues.mahler_measure_mc.s", "s", "lower", False),
    ("specialvalues.mahler.ns_per_sample", "ns", "lower", False),
    ("specialvalues.verify_table1.s", "s", "lower", False),
    ("specialvalues.riemann_zeta.calls", "count", "lower", True),
    ("specialvalues.dirichlet_L.calls", "count", "lower", True),
    ("cli.main.self_s", "s", "lower", False),
    ("cli.stdout_bytes", "bytes", "lower", True),
    ("trace.overhead_frac", "ratio", "lower", False),
)
EXACT = tuple(name for name, _, _, exact in PER_LAYER if exact)
KERNELS = ("v_add", "v_neg", "v_mul", "v_scale", "v_chi")
MB = 1 << 20


def merge(aggregates: list[dict]) -> dict:
    """Sum the per-invocation aggregates of one traced pass."""
    stats = {}
    busy = capacity = 0.0
    out = {"scans": 0, "fibers": 0, "table_bytes": 0, "pool_workers": 0}
    for agg in aggregates:
        for key, row in agg["stats"].items():
            acc = stats.setdefault(key, [0, 0.0, 0.0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        out["scans"] += agg["scans"]
        out["fibers"] += agg["fibers"]
        out["table_bytes"] = max(out["table_bytes"], agg["table_bytes"])
        out["pool_workers"] = max(out["pool_workers"], agg["pool_workers"])
        busy += agg["pool_busy_s"]
        verify_s = agg["stats"].get("globalzeta.verify_global", [0, 0.0])[1]
        capacity += verify_s * agg["pool_workers"]
    out["stats"] = stats
    out["pool_busy_frac"] = busy / capacity if capacity else 0.0
    return out


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(pass_agg: dict, stdout_bytes: int, overhead_frac: float) -> dict:
    stats = pass_agg["stats"]

    def col(key, i):
        return stats.get(key, (0, 0.0, 0.0, 0))[i]

    def calls(key):
        return col(key, 0)

    def total(key):
        return col(key, 1)

    def ns_per_elem(kernel, tag):
        key = f"finfield.Field.{kernel}|{tag}"
        return _ratio(col(key, 2), col(key, 3), 1e9)

    brute = [f"varieties.count_{kind}_brute" for kind in ("affine", "biprojective", "nonaffine")]
    points = sum(col(key, 3) for key in brute)
    fiber_calls = calls("fibercount.fiberwise_totals")
    singular_calls = calls("varieties.is_singular_point")
    m = {
        "finfield.exp_log_tables.builds": calls("finfield.Field.exp_log_tables|build"),
        "finfield.exp_log_tables.build_s": total("finfield.Field.exp_log_tables|build"),
        "finfield.table_mb": pass_agg["table_bytes"] / MB,
        "finfield.v_poly.s.ext": total("finfield.Field.v_poly|ext"),
        "finfield.v_poly.s.prime": total("finfield.Field.v_poly|prime"),
        "finfield.make_field.built": calls("finfield.Field.__init__"),
        "finfield.make_field.s": total("finfield.Field.__init__"),
        "finfield.classify_conic_encs.calls": calls("finfield.classify_conic_encs"),
        "intpoly.eval_field_arrays.s": total("intpoly.IntPoly.eval_field_arrays"),
        "intpoly.eval_field.calls": calls("intpoly.IntPoly.eval_field"),
        "intpoly.eval_field.s": total("intpoly.IntPoly.eval_field"),
        "varieties.brute.points": points,
        "varieties.brute.ns_per_point": _ratio(sum(total(k) for k in brute), points, 1e9),
        "varieties.singular_locus.s": total("varieties.singular_locus"),
        "varieties.is_singular_point.calls": singular_calls,
        "varieties.singular.hit_ratio": _ratio(col("varieties.is_singular_point", 3),
                                               singular_calls),
        "fibercount.fiberwise_totals.calls": fiber_calls,
        "fibercount.scans": pass_agg["scans"],
        "fibercount.cache_hit_ratio": 1.0 - _ratio(pass_agg["scans"], fiber_calls)
        if fiber_calls else 0.0,
        "fibercount.fibers": pass_agg["fibers"],
        "fibercount.fiberwise_totals.self_s": col("fibercount.fiberwise_totals", 2),
        "fibercount.ns_per_fiber": _ratio(total("fibercount.fiberwise_totals"),
                                          pass_agg["fibers"], 1e9),
        "fibercount.classify_fiber.calls": calls("fibercount.classify_fiber"),
        "fibercount.classify_fiber.s": total("fibercount.classify_fiber"),
        "fibercount.count_formula.calls": calls("fibercount.count_formula"),
        "localzeta.recover_factors.calls": calls("localzeta.recover_factors"),
        "localzeta.recover_factors.s": total("localzeta.recover_factors"),
        "localzeta.local_zeta_closed_form.calls": calls("localzeta.local_zeta_closed_form"),
        "globalzeta.verify_global.s": total("globalzeta.verify_global"),
        "globalzeta.counts_for_space.s": total("globalzeta.counts_for_space"),
        "globalzeta.euler_factor.calls": calls("globalzeta.euler_factor"),
        "globalzeta.pool.workers": pass_agg["pool_workers"],
        "globalzeta.pool.busy_frac": pass_agg["pool_busy_frac"],
        "specialvalues.mahler_measure_mc.s": total("specialvalues.mahler_measure_mc"),
        "specialvalues.mahler.ns_per_sample": _ratio(
            total("specialvalues.mahler_measure_mc"),
            col("specialvalues.mahler_measure_mc", 3), 1e9),
        "specialvalues.verify_table1.s": total("specialvalues.verify_table1"),
        "specialvalues.riemann_zeta.calls": calls("specialvalues.riemann_zeta"),
        "specialvalues.dirichlet_L.calls": calls("specialvalues.dirichlet_L"),
        "cli.main.self_s": col("cli.main", 2),
        "cli.stdout_bytes": stdout_bytes,
        "trace.overhead_frac": overhead_frac,
    }
    for kernel in ("v_mul", "v_add", "v_neg"):
        m[f"finfield.{kernel}.ns_per_elem.ext"] = ns_per_elem(kernel, "ext")
    for kernel in ("v_mul", "v_add", "v_chi"):
        m[f"finfield.{kernel}.ns_per_elem.prime"] = ns_per_elem(kernel, "prime")
    for key in brute:
        m[f"{key}.s"] = total(key)
    for tag in ("ext", "prime"):
        m[f"finfield.v_elems.{tag}"] = sum(col(f"finfield.Field.{k}|{tag}", 3) for k in KERNELS)
    return {name: m[name] for name, _, _, _ in PER_LAYER}
