#!/usr/bin/env python3
"""Schema + sanity validation of BENCH_query_throughput.json artifacts.

Usage: scripts/bench_check.py FILE [FILE ...]

Checks (per file):
  - required top-level keys are present with sane types;
  - latency percentile blocks are monotone (p50 <= p95 <= p99) with a
    positive mean;
  - serving hit rate (when the cache-on pass ran) lies in [0, 1] and
    hits/misses are consistent with it;
  - the thread ladder covers t = 1/2/4/8 with positive QPS;
  - every scenario block has dedup_off/dedup_on with positive QPS,
    duplicate_fraction in [0, 1], routed + collapsed == slots, and both
    determinism flags true;
  - the streaming block (unless skipped with L2R_BENCH_STREAM=0) has a
    poisson and a bursty schedule, each with submitted == completed ==
    slots, monotone non-negative queue-wait percentiles, close-reason
    counts summing to the batch count, and a batch-size histogram that
    sums back to the submitted count (no query lost or double-counted);
  - the duplicate_heavy scenario shows a dedup-on improvement (QPS up and
    mean latency down vs dedup-off) — the structural win, stated as a
    generous >= 1.2x bound so CI noise cannot flake it;
  - the deadline_sweep block (unless L2R_BENCH_DEADLINE_SWEEP=0) has
    strictly increasing deadlines, positive QPS, monotone queue-wait
    percentiles, and a mean batch size that does not shrink as the
    deadline grows (5% tolerance for timing noise);
  - the overload_sweep block (unless L2R_BENCH_OVERLOAD=0) reports
    ok=true (every point conserved callbacks and shed with
    kResourceExhausted), per-class splits that sum to the totals,
    interactive drain-wait p99 under the SLO (with a noise allowance
    for contended CI cores) at every point, bulk shed at a rate >=
    interactive wherever anything shed, and goodput at overload
    multipliers (>= 2x capacity) within a generous factor of the peak
    — the controller must not collapse under overload;
  - the dynamic_world block (unless L2R_BENCH_DYNAMIC=0 or the cache is
    off) covers incident_injection / rush_hour_transition /
    rolling_closures with strictly increasing epoch numbers across the
    whole suite, zero stale serves at every point (the no-stale-serve
    gate: every post-repair serve byte-matched a cold recompute on the
    new epoch), per-point repair conservation (repaired + full_recompute
    + unroutable == invalidated), every scenario's world restore
    reproducing the epoch-0 bytes, and the single-incident point showing
    repair cost < 30% of a wholesale recompute at >= 70% convergence;
  - the scale_ladder block (unless L2R_BENCH_SCALE_LADDER=0) has strictly
    increasing scales with monotone world footprints, snapshot sizes
    consistent with the in-memory arrays, positive QPS at every rung, a
    snapshot-mmap cold start >= 10x faster than the CSV rebuild at
    every metro-sized rung (scale >= 1.0), and a positive checksum-only
    (trusted-image) open timing;
  - the scale_out block (unless L2R_BENCH_SCALE_OUT=0) covers serving-
    stack runs at t = 1/2/4/8 and drain audits at 1/2/4 overlapping
    drain threads, every rung byte-identical to the bare-router
    reference, hot-path hits a subset of total hits, and QPS at t=4 at
    least 2x the t=1 rung — unless the artifact declares
    `single_core: true` (1 hardware thread: no parallel speedup exists
    to measure, but the identity gates still apply in full).

Exits 0 when every file passes, 1 with a per-violation message otherwise.
CI runs this after each bench pass so a malformed or regressed artifact
fails the PR instead of being uploaded silently.
"""

import json
import sys

REQUIRED_TOP_KEYS = [
    "bench",
    "unix_time",
    "dataset",
    "scale",
    "num_vertices",
    "num_edges",
    "num_queries",
    "failures",
    "mix",
    "methods",
    "latency_us",
    "serving",
    "scenarios",
    "streaming",
    "deadline_sweep",
    "overload_sweep",
    "dynamic_world",
    "scale_ladder",
    "scale_out",
    "deterministic_across_threads",
    "runs",
]

STREAM_SCHEDULES = ["poisson", "bursty"]

SCENARIO_NAMES = [
    "uniform",
    "zipf",
    "commute_burst",
    "adversarial_cold",
    "duplicate_heavy",
]

EXPECTED_THREADS = [1, 2, 4, 8]

EXPECTED_DRAIN_LADDER = [1, 2, 4]

# The scale-out serving ladder must show real parallel speedup on a
# multi-core host: QPS at t=4 >= 2x the t=1 rung. On a host with one
# hardware thread (single_core: true) there is no speedup to measure —
# the byte-identity gates still apply in full there.
MIN_SCALE_OUT_T4_SPEEDUP = 2.0

# duplicate_heavy repeats every query 8x; dedup-on must beat dedup-off by
# at least this factor. Far below the ~8x structural ceiling, far above
# CI timing noise.
MIN_DUP_HEAVY_SPEEDUP = 1.2

# A longer batch deadline can only grow the mean batch; allow 5% noise.
DEADLINE_BATCH_TOLERANCE = 0.95

# Goodput at overload (multiplier >= 2) must stay within this factor of
# the sweep's peak goodput. Clean runs hold within ~10% of peak; the
# floor is far looser because the sweep measures real time on shared CI
# cores (the capacity estimate itself swings run to run). The gate
# exists to fail a controller that *collapses* under load — goodput
# falling off a cliff past saturation — not to relitigate the tuned
# margin, which the committed artifact documents.
MIN_OVERLOAD_GOODPUT_FRACTION = 0.6

# Same reasoning for the drain-wait SLO: the controller targets slo_us
# and clean runs sit well inside it, but p99 on a contended CI machine
# carries scheduling noise the controller cannot see. Gate at a modest
# multiple so a controller that stops enforcing the SLO still fails.
OVERLOAD_SLO_NOISE_FACTOR = 1.5

DYNAMIC_SCENARIOS = [
    "incident_injection",
    "rush_hour_transition",
    "rolling_closures",
]

# Snapshot mmap must beat the CSV parse-and-rebuild cold start by at
# least this factor once the world is metro-sized (generator scale >=
# 1.0, ~140k vertices). Measured runs sit near 20x even at scale 0.3;
# 10x leaves room for CI page-cache and disk noise while still failing
# a snapshot path that quietly degenerates into a full parse.
MIN_LADDER_COLD_START_SPEEDUP = 10.0
MIN_LADDER_SPEEDUP_SCALE = 1.0

LADDER_POINT_KEYS = [
    "scale",
    "num_vertices",
    "num_edges",
    "world_bytes",
    "snapshot_bytes",
    "gen_seconds",
    "csv_cold_start_seconds",
    "mmap_cold_start_seconds",
    "checksum_only_open_seconds",
    "cold_start_speedup",
    "zero_copy",
    "queries",
    "qps",
    "mean_query_us",
]

# The incident case the repair pass exists for: a single incident's
# repair must cost well under a wholesale recompute and converge for
# most candidates in a bounded round. Settle counts are deterministic,
# so these are exact gates, not noise-padded ones.
MAX_INCIDENT_REPAIR_COST_RATIO = 0.3
MIN_INCIDENT_CONVERGENCE = 0.7

DYNAMIC_POINT_KEYS = [
    "kind",
    "epoch",
    "edges_touched",
    "cached_entries",
    "invalidated",
    "staleness",
    "repaired",
    "full_recompute",
    "unroutable",
    "convergence",
    "repair_settles",
    "wholesale_settles",
    "repair_cost_ratio",
    "stale_serves",
    "serve_misses",
]


class Violation(Exception):
    pass


def require(cond, message):
    if not cond:
        raise Violation(message)


def check_latency_block(block, where):
    for key in ("mean", "p50", "p95", "p99"):
        require(key in block, f"{where}: missing '{key}'")
        require(
            isinstance(block[key], (int, float)),
            f"{where}: '{key}' is not a number",
        )
    require(block["mean"] > 0, f"{where}: mean must be > 0")
    require(
        block["p50"] <= block["p95"] <= block["p99"],
        f"{where}: percentiles not monotone "
        f"(p50={block['p50']}, p95={block['p95']}, p99={block['p99']})",
    )


def check_serving(serving):
    require(isinstance(serving, dict), "serving: not an object")
    for key in ("workload_queries", "distinct_queries", "cache_off"):
        require(key in serving, f"serving: missing '{key}'")
    check_latency_block(serving["cache_off"], "serving.cache_off")
    cache_on = serving.get("cache_on")
    if cache_on is None:
        return  # cache pass skipped (L2R_BENCH_CACHE=0)
    check_latency_block(cache_on, "serving.cache_on")
    hit_rate = cache_on.get("hit_rate")
    require(hit_rate is not None, "serving.cache_on: missing 'hit_rate'")
    require(
        0.0 <= hit_rate <= 1.0,
        f"serving.cache_on: hit_rate {hit_rate} outside [0, 1]",
    )
    hits, misses = cache_on.get("hits", 0), cache_on.get("misses", 0)
    lookups = hits + misses
    if lookups > 0:
        require(
            abs(hit_rate - hits / lookups) < 1e-3,
            f"serving.cache_on: hit_rate {hit_rate} inconsistent with "
            f"hits={hits}, misses={misses}",
        )


def check_runs(runs):
    require(isinstance(runs, list) and runs, "runs: missing or empty")
    threads = [run.get("threads") for run in runs]
    require(
        threads == EXPECTED_THREADS,
        f"runs: thread ladder {threads} != {EXPECTED_THREADS}",
    )
    for run in runs:
        require(
            run.get("qps", 0) > 0,
            f"runs: non-positive qps at t={run.get('threads')}",
        )


def check_scenarios(scenarios):
    require(isinstance(scenarios, dict), "scenarios: not an object")
    for name in SCENARIO_NAMES:
        require(name in scenarios, f"scenarios: missing '{name}'")
        sc = scenarios[name]
        where = f"scenarios.{name}"
        for key in (
            "slots",
            "distinct_used",
            "duplicate_fraction",
            "dedup_off",
            "dedup_on",
            "single_flight",
            "coalesced_identical",
            "deterministic_t1248",
        ):
            require(key in sc, f"{where}: missing '{key}'")
        require(
            0.0 <= sc["duplicate_fraction"] <= 1.0,
            f"{where}: duplicate_fraction outside [0, 1]",
        )
        require(sc["slots"] > 0, f"{where}: slots must be > 0")
        for mode in ("dedup_off", "dedup_on"):
            require(
                sc[mode].get("qps", 0) > 0,
                f"{where}.{mode}: non-positive qps",
            )
            require(
                sc[mode].get("mean_us", 0) > 0,
                f"{where}.{mode}: non-positive mean_us",
            )
        routed = sc["dedup_on"].get("unique_routed", 0)
        collapsed = sc["dedup_on"].get("duplicates_collapsed", 0)
        require(
            routed + collapsed == sc["slots"],
            f"{where}: unique_routed ({routed}) + duplicates_collapsed "
            f"({collapsed}) != slots ({sc['slots']})",
        )
        require(
            sc["coalesced_identical"] is True,
            f"{where}: coalesced results diverged from the uncoalesced run",
        )
        require(
            sc["deterministic_t1248"] is True,
            f"{where}: single-flight ladder diverged across t=1/2/4/8",
        )

    heavy = scenarios["duplicate_heavy"]
    speedup = heavy["dedup_on"]["qps"] / heavy["dedup_off"]["qps"]
    require(
        speedup >= MIN_DUP_HEAVY_SPEEDUP,
        f"scenarios.duplicate_heavy: dedup speedup {speedup:.2f}x below "
        f"the {MIN_DUP_HEAVY_SPEEDUP}x floor",
    )
    require(
        heavy["dedup_on"]["mean_us"] < heavy["dedup_off"]["mean_us"],
        "scenarios.duplicate_heavy: dedup-on mean latency not below "
        "dedup-off",
    )


def check_streaming(streaming):
    if streaming is None:
        return  # streaming pass skipped (L2R_BENCH_STREAM=0)
    require(isinstance(streaming, dict), "streaming: not an object")
    for key in ("max_batch", "batch_deadline_us", "mean_gap_us"):
        require(key in streaming, f"streaming: missing '{key}'")
    max_batch = streaming["max_batch"]
    for name in STREAM_SCHEDULES:
        require(name in streaming, f"streaming: missing '{name}'")
        sc = streaming[name]
        where = f"streaming.{name}"
        for key in (
            "slots",
            "submitted",
            "completed",
            "qps",
            "batches",
            "closed_by_size",
            "closed_by_deadline",
            "closed_by_shutdown",
            "queue_wait_us",
            "batch_size_hist",
        ):
            require(key in sc, f"{where}: missing '{key}'")
        require(sc["slots"] > 0, f"{where}: slots must be > 0")
        require(
            sc["submitted"] == sc["slots"] == sc["completed"],
            f"{where}: submitted ({sc['submitted']}) / completed "
            f"({sc['completed']}) != slots ({sc['slots']}) — "
            "queries were lost or rejected",
        )
        require(sc["qps"] > 0, f"{where}: non-positive qps")
        require(sc["batches"] > 0, f"{where}: no batches closed")
        closes = (
            sc["closed_by_size"]
            + sc["closed_by_deadline"]
            + sc["closed_by_shutdown"]
        )
        require(
            closes == sc["batches"],
            f"{where}: close reasons ({closes}) != batches "
            f"({sc['batches']})",
        )
        wait = sc["queue_wait_us"]
        for key in ("mean", "p50", "p95", "p99"):
            require(key in wait, f"{where}.queue_wait_us: missing '{key}'")
        require(
            wait["mean"] >= 0, f"{where}.queue_wait_us: negative mean"
        )
        require(
            0 <= wait["p50"] <= wait["p95"] <= wait["p99"],
            f"{where}.queue_wait_us: percentiles not monotone "
            f"(p50={wait['p50']}, p95={wait['p95']}, p99={wait['p99']})",
        )
        hist = sc["batch_size_hist"]
        require(
            isinstance(hist, dict) and hist,
            f"{where}: batch_size_hist missing or empty",
        )
        hist_batches = sum(hist.values())
        hist_queries = sum(int(size) * count for size, count in hist.items())
        require(
            all(1 <= int(size) <= max_batch for size in hist),
            f"{where}: batch size outside [1, max_batch={max_batch}]",
        )
        require(
            hist_batches == sc["batches"],
            f"{where}: histogram batches ({hist_batches}) != batches "
            f"({sc['batches']})",
        )
        require(
            hist_queries == sc["submitted"],
            f"{where}: histogram queries ({hist_queries}) != submitted "
            f"({sc['submitted']}) — slots leaked from the histogram",
        )


def check_wait_block(wait, where):
    for key in ("mean", "p50", "p95", "p99"):
        require(key in wait, f"{where}: missing '{key}'")
    require(wait["mean"] >= 0, f"{where}: negative mean")
    require(
        0 <= wait["p50"] <= wait["p95"] <= wait["p99"],
        f"{where}: percentiles not monotone "
        f"(p50={wait['p50']}, p95={wait['p95']}, p99={wait['p99']})",
    )


def check_deadline_sweep(sweep):
    if sweep is None:
        return  # skipped (L2R_BENCH_DEADLINE_SWEEP=0)
    require(isinstance(sweep, dict), "deadline_sweep: not an object")
    for key in ("max_batch", "mean_gap_us", "points"):
        require(key in sweep, f"deadline_sweep: missing '{key}'")
    require(sweep["max_batch"] > 0, "deadline_sweep: max_batch must be > 0")
    points = sweep["points"]
    require(
        isinstance(points, list) and points,
        "deadline_sweep: points missing or empty",
    )
    prev_deadline = 0
    prev_mean_batch = 0.0
    for p in points:
        where = f"deadline_sweep[deadline_us={p.get('deadline_us')}]"
        for key in (
            "deadline_us",
            "qps",
            "mean_batch",
            "closed_by_size",
            "closed_by_deadline",
            "queue_wait_us",
        ):
            require(key in p, f"{where}: missing '{key}'")
        require(
            p["deadline_us"] > prev_deadline,
            f"{where}: deadlines not strictly increasing",
        )
        prev_deadline = p["deadline_us"]
        require(p["qps"] > 0, f"{where}: non-positive qps")
        require(
            1.0 <= p["mean_batch"] <= sweep["max_batch"],
            f"{where}: mean_batch {p['mean_batch']} outside "
            f"[1, max_batch={sweep['max_batch']}]",
        )
        # The latency/throughput tradeoff the sweep exists to expose: a
        # longer deadline can only accumulate bigger batches.
        require(
            p["mean_batch"] >= prev_mean_batch * DEADLINE_BATCH_TOLERANCE,
            f"{where}: mean_batch {p['mean_batch']} shrank vs the shorter "
            f"deadline's {prev_mean_batch}",
        )
        prev_mean_batch = max(prev_mean_batch, p["mean_batch"])
        check_wait_block(p["queue_wait_us"], f"{where}.queue_wait_us")


def check_overload_sweep(sweep):
    if sweep is None:
        return  # skipped (L2R_BENCH_OVERLOAD=0)
    require(isinstance(sweep, dict), "overload_sweep: not an object")
    for key in ("capacity_qps", "bulk_fraction", "slo_us", "ok", "points"):
        require(key in sweep, f"overload_sweep: missing '{key}'")
    require(
        sweep["capacity_qps"] > 0, "overload_sweep: non-positive capacity"
    )
    require(
        sweep["ok"] is True,
        "overload_sweep: ok is false — a point dropped a callback or shed "
        "without kResourceExhausted",
    )
    points = sweep["points"]
    require(
        isinstance(points, list) and points,
        "overload_sweep: points missing or empty",
    )
    slo_us = sweep["slo_us"]
    peak_goodput = max(p.get("goodput_qps", 0) for p in points)
    require(peak_goodput > 0, "overload_sweep: no point served anything")
    for p in points:
        where = f"overload_sweep[x{p.get('multiplier')}]"
        for key in (
            "multiplier",
            "slots",
            "offered_qps",
            "goodput_qps",
            "submitted",
            "completed",
            "shed",
            "conserved",
            "shed_status_ok",
            "interactive",
            "bulk",
            "interactive_drain_wait_us",
            "controller",
        ):
            require(key in p, f"{where}: missing '{key}'")
        require(p["conserved"] is True, f"{where}: callbacks not conserved")
        require(
            p["shed_status_ok"] is True,
            f"{where}: a shed callback lacked kResourceExhausted",
        )
        interactive, bulk = p["interactive"], p["bulk"]
        require(
            interactive["submitted"] + bulk["submitted"] == p["submitted"],
            f"{where}: per-class submitted does not sum to the total",
        )
        require(
            interactive["shed"] + bulk["shed"] == p["shed"],
            f"{where}: per-class shed does not sum to the total",
        )
        require(
            p["completed"] + p["shed"] == p["submitted"],
            f"{where}: completed ({p['completed']}) + shed ({p['shed']}) "
            f"!= submitted ({p['submitted']})",
        )
        wait = p["interactive_drain_wait_us"]
        check_wait_block(wait, f"{where}.interactive_drain_wait_us")
        require(
            wait["p99"] <= slo_us * OVERLOAD_SLO_NOISE_FACTOR,
            f"{where}: interactive drain-wait p99 {wait['p99']} breaks the "
            f"{slo_us}us SLO even with the {OVERLOAD_SLO_NOISE_FACTOR}x "
            "noise allowance",
        )
        # Bulk sheds first: wherever anything shed, the bulk shed *rate*
        # must be at least the interactive one.
        if p["shed"] > 0 and bulk["submitted"] > 0:
            bulk_rate = bulk["shed"] / bulk["submitted"]
            inter_rate = (
                interactive["shed"] / interactive["submitted"]
                if interactive["submitted"] > 0
                else 0.0
            )
            require(
                bulk_rate >= inter_rate,
                f"{where}: bulk shed rate {bulk_rate:.3f} below "
                f"interactive {inter_rate:.3f} — class priority inverted",
            )
        if p["multiplier"] >= 2.0:
            require(
                p["goodput_qps"]
                >= MIN_OVERLOAD_GOODPUT_FRACTION * peak_goodput,
                f"{where}: goodput {p['goodput_qps']:.0f} collapsed below "
                f"{MIN_OVERLOAD_GOODPUT_FRACTION:.0%} of the sweep peak "
                f"{peak_goodput:.0f}",
            )
        ctl = p["controller"]
        for key in (
            "ticks",
            "overloaded_ticks",
            "deadline_cuts",
            "deadline_recoveries",
            "level_raises",
            "level_drops",
            "final_level",
            "final_deadline_us",
        ):
            require(key in ctl, f"{where}.controller: missing '{key}'")
        require(ctl["ticks"] > 0, f"{where}: the controller never ticked")


def check_dynamic_world(block):
    if block is None:
        return  # skipped (L2R_BENCH_DYNAMIC=0 or cache off)
    require(isinstance(block, dict), "dynamic_world: not an object")
    for key in (
        "pool_queries",
        "incident_sites",
        "ok",
        "incident_repair_cost_ratio",
        "incident_convergence",
        "scenarios",
    ):
        require(key in block, f"dynamic_world: missing '{key}'")
    require(
        block["ok"] is True,
        "dynamic_world: ok is false — an in-bench gate tripped "
        "(stale serve, broken restore, non-monotone epoch, or the "
        "incident repair bound)",
    )
    require(
        block["pool_queries"] > 0, "dynamic_world: empty query pool"
    )
    require(
        block["incident_sites"] > 0, "dynamic_world: no incident sites"
    )
    scenarios = block["scenarios"]
    names = [s.get("name") for s in scenarios]
    require(
        names == DYNAMIC_SCENARIOS,
        f"dynamic_world: scenarios {names} != {DYNAMIC_SCENARIOS}",
    )
    prev_epoch = 0
    for sc in scenarios:
        where = f"dynamic_world.{sc['name']}"
        require(
            sc.get("epochs_monotone") is True,
            f"{where}: epochs not monotone within the scenario",
        )
        require(
            sc.get("stale_serves") == 0,
            f"{where}: {sc.get('stale_serves')} serves diverged from the "
            "cold recompute — a stale entry was answered",
        )
        require(
            sc.get("restored_identical") is True,
            f"{where}: the restore batch did not reproduce the epoch-0 "
            "bytes — an update leaked into the restored world",
        )
        points = sc.get("points")
        require(
            isinstance(points, list) and points,
            f"{where}: points missing or empty",
        )
        for p in points:
            pwhere = f"{where}[epoch={p.get('epoch')}]"
            for key in DYNAMIC_POINT_KEYS:
                require(key in p, f"{pwhere}: missing '{key}'")
            require(
                p["epoch"] > prev_epoch,
                f"{pwhere}: epoch not strictly increasing across the "
                f"suite (prev {prev_epoch})",
            )
            prev_epoch = p["epoch"]
            require(
                p["stale_serves"] == 0,
                f"{pwhere}: {p['stale_serves']} stale serves",
            )
            require(
                p["repaired"] + p["full_recompute"] + p["unroutable"]
                == p["invalidated"],
                f"{pwhere}: repaired ({p['repaired']}) + full_recompute "
                f"({p['full_recompute']}) + unroutable "
                f"({p['unroutable']}) != invalidated "
                f"({p['invalidated']}) — repair candidates leaked",
            )
            require(
                p["invalidated"] <= p["cached_entries"],
                f"{pwhere}: invalidated exceeds the cached entries",
            )
            require(
                0.0 <= p["staleness"] <= 1.0,
                f"{pwhere}: staleness outside [0, 1]",
            )
            require(
                0.0 <= p["convergence"] <= 1.0,
                f"{pwhere}: convergence outside [0, 1]",
            )
            require(
                p["wholesale_settles"] > 0,
                f"{pwhere}: wholesale recompute settled nothing",
            )
    first = scenarios[0]["points"][0]
    require(
        first["kind"] == "inject",
        "dynamic_world: first incident point is not an inject",
    )
    ratio = block["incident_repair_cost_ratio"]
    conv = block["incident_convergence"]
    require(
        abs(first["repair_cost_ratio"] - ratio) < 1e-6,
        "dynamic_world: incident_repair_cost_ratio inconsistent with the "
        "first inject point",
    )
    require(
        ratio < MAX_INCIDENT_REPAIR_COST_RATIO,
        f"dynamic_world: single-incident repair cost ratio {ratio} not "
        f"under {MAX_INCIDENT_REPAIR_COST_RATIO}",
    )
    require(
        conv >= MIN_INCIDENT_CONVERGENCE,
        f"dynamic_world: single-incident convergence {conv} below "
        f"{MIN_INCIDENT_CONVERGENCE}",
    )


def check_scale_ladder(block):
    if block is None:
        return  # skipped (L2R_BENCH_SCALE_LADDER=0)
    require(isinstance(block, dict), "scale_ladder: not an object")
    require("scales" in block, "scale_ladder: missing 'scales'")
    points = block["scales"]
    require(
        isinstance(points, list) and points,
        "scale_ladder: scales missing or empty",
    )
    prev = None
    for p in points:
        where = f"scale_ladder[scale={p.get('scale')}]"
        for key in LADDER_POINT_KEYS:
            require(key in p, f"{where}: missing '{key}'")
        require(p["num_vertices"] > 0, f"{where}: empty world")
        require(p["num_edges"] > 0, f"{where}: no edges")
        require(p["qps"] > 0, f"{where}: non-positive qps")
        require(
            p["csv_cold_start_seconds"] > 0
            and p["mmap_cold_start_seconds"] > 0,
            f"{where}: non-positive cold-start timing",
        )
        require(
            p["checksum_only_open_seconds"] > 0,
            f"{where}: non-positive checksum-only open timing",
        )
        # The snapshot image is the world arrays plus fixed-size header,
        # section table, and alignment padding — never more than a few KB
        # of overhead, and never smaller than the arrays it contains.
        require(
            0
            <= p["snapshot_bytes"] - p["world_bytes"]
            <= 64 * 1024,
            f"{where}: snapshot_bytes {p['snapshot_bytes']} inconsistent "
            f"with world_bytes {p['world_bytes']}",
        )
        if prev is not None:
            require(
                p["scale"] > prev["scale"],
                f"{where}: scales not strictly increasing",
            )
            require(
                p["num_vertices"] > prev["num_vertices"]
                and p["world_bytes"] > prev["world_bytes"],
                f"{where}: footprint not monotone with scale "
                f"({prev['num_vertices']} -> {p['num_vertices']} vertices, "
                f"{prev['world_bytes']} -> {p['world_bytes']} bytes)",
            )
        prev = p
        if p["scale"] >= MIN_LADDER_SPEEDUP_SCALE:
            require(
                p["cold_start_speedup"] >= MIN_LADDER_COLD_START_SPEEDUP,
                f"{where}: cold-start speedup {p['cold_start_speedup']}x "
                f"below the {MIN_LADDER_COLD_START_SPEEDUP}x floor — the "
                "mmap path is not materially faster than the CSV rebuild",
            )


def check_scale_out(block):
    if block is None:
        return  # skipped (L2R_BENCH_SCALE_OUT=0)
    require(isinstance(block, dict), "scale_out: not an object")
    for key in ("hw_threads", "single_core", "serving_runs", "drain_audits"):
        require(key in block, f"scale_out: missing '{key}'")
    require(block["hw_threads"] >= 1, "scale_out: hw_threads < 1")
    single_core = block["single_core"]
    require(
        isinstance(single_core, bool),
        "scale_out: single_core is not a boolean",
    )
    if single_core:
        require(
            block["hw_threads"] == 1,
            "scale_out: single_core claimed with more than one hardware "
            "thread — the escape hatch only covers 1-thread hosts",
        )

    runs = block["serving_runs"]
    threads = [run.get("threads") for run in runs]
    require(
        threads == EXPECTED_THREADS,
        f"scale_out: serving ladder {threads} != {EXPECTED_THREADS}",
    )
    qps_by_threads = {}
    for run in runs:
        where = f"scale_out.serving_runs[t={run.get('threads')}]"
        require(run.get("qps", 0) > 0, f"{where}: non-positive qps")
        require(
            run.get("identical") is True,
            f"{where}: serving-stack results diverged from the "
            "bare-router reference",
        )
        qps_by_threads[run["threads"]] = run["qps"]
    if not single_core:
        speedup = qps_by_threads[4] / qps_by_threads[1]
        require(
            speedup >= MIN_SCALE_OUT_T4_SPEEDUP,
            f"scale_out: t=4 speedup {speedup:.2f}x below the "
            f"{MIN_SCALE_OUT_T4_SPEEDUP}x floor on a "
            f"{block['hw_threads']}-thread host",
        )

    audits = block["drain_audits"]
    drains = [a.get("drains") for a in audits]
    require(
        drains == EXPECTED_DRAIN_LADDER,
        f"scale_out: drain ladder {drains} != {EXPECTED_DRAIN_LADDER}",
    )
    for a in audits:
        where = f"scale_out.drain_audits[drains={a.get('drains')}]"
        require(a.get("qps", 0) > 0, f"{where}: non-positive qps")
        require(
            a.get("identical") is True,
            f"{where}: streamed results diverged from the reference — "
            "overlapping drains broke byte identity",
        )
        require(a.get("batches", 0) > 0, f"{where}: no batches drained")
        hits, hot_hits = a.get("hits", 0), a.get("hot_hits", 0)
        require(
            0 <= hot_hits <= hits,
            f"{where}: hot_hits {hot_hits} exceeds total hits {hits} — "
            "the seqlock hot path is a subset of the hit count",
        )


def check_file(path):
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    for key in REQUIRED_TOP_KEYS:
        require(key in data, f"missing top-level key '{key}'")
    require(
        data["bench"] == "query_throughput",
        f"bench label '{data['bench']}' != 'query_throughput'",
    )
    require(data["num_queries"] > 0, "num_queries must be > 0")
    require(data["failures"] == 0, f"{data['failures']} routing failures")
    check_latency_block(data["latency_us"], "latency_us")
    check_serving(data["serving"])
    check_runs(data["runs"])
    check_scenarios(data["scenarios"])
    check_streaming(data["streaming"])
    check_deadline_sweep(data["deadline_sweep"])
    check_overload_sweep(data["overload_sweep"])
    check_dynamic_world(data["dynamic_world"])
    check_scale_ladder(data["scale_ladder"])
    check_scale_out(data["scale_out"])
    require(
        data["deterministic_across_threads"] is True,
        "deterministic_across_threads is not true",
    )


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        try:
            check_file(path)
        except Violation as violation:
            print(f"bench_check: {path}: {violation}", file=sys.stderr)
            failed = True
        except (OSError, json.JSONDecodeError) as error:
            print(f"bench_check: {path}: unreadable: {error}", file=sys.stderr)
            failed = True
        except (KeyError, TypeError, AttributeError, ValueError,
                ZeroDivisionError) as error:
            # A truncated or shape-mangled artifact (e.g. a bench process
            # killed mid-write) trips a structural error before a named
            # check does. One line, not a traceback: CI logs stay
            # readable and the exit code still fails the job.
            print(
                f"bench_check: {path}: malformed artifact "
                f"({type(error).__name__}: {error}) — file is truncated "
                f"or not a query_throughput report",
                file=sys.stderr,
            )
            failed = True
        else:
            print(f"bench_check: {path}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
