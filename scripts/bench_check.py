#!/usr/bin/env python3
"""Validates BENCH_query_throughput.json artifacts.

Usage: scripts/bench_check.py FILE [FILE ...]

The artifact is a fixture header plus one object per block of
bench/query_throughput.cc. Each block declares the key paths it must
carry in SCHEMA ('a.b'; 'a[].b' means every element of the non-empty
list a) and its value checks in one function of CHECKS, written with a
few generic predicates (Checker): true, equal, positive, in_range,
monotone, conserved, ratio, and the single_core hatch. Thresholds are
the named constants below. A block that L2R_BENCH_ONLY left out is null
and skipped.

Every violation is printed on its own line, prefixed with the file and
the block. Exits 0 when every file passes, 1 otherwise.
"""

import json
import sys

# duplicate_heavy repeats every query 8x; dedup-on QPS must beat dedup-off
# by this factor: far below the ~8x ceiling, far above CI timing noise.
MIN_DUP_HEAVY_SPEEDUP = 1.2

# A longer batch deadline can only grow the mean batch; allow 5% noise.
DEADLINE_BATCH_TOLERANCE = 0.95

# Goodput at overload (multiplier >= 2) must stay within this factor of
# the sweep's peak. Clean runs hold within ~10%; the floor is loose because
# the sweep measures real time on shared cores. It fails a controller that
# collapses under load, not a tuned margin.
MIN_OVERLOAD_GOODPUT_FRACTION = 0.6

# The interactive drain-wait p99 may exceed the SLO by this factor: p99 on
# a contended machine carries scheduling noise the controller cannot see.
OVERLOAD_SLO_NOISE_FACTOR = 1.5

# The snapshot image is the world arrays plus a header, a section table
# and alignment padding: never smaller, never more than this much larger.
MAX_SNAPSHOT_OVERHEAD_BYTES = 64 * 1024

# A single incident's repair must cost well under a wholesale recompute.
# Settle counts are deterministic, so this is an exact gate.
MAX_INCIDENT_REPAIR_COST_RATIO = 0.3

# Warm serving-stack QPS at t=4 must reach this multiple of t=1, unless the
# artifact declares single_core (a 1-thread host has no speedup to show;
# the identity gates still apply).
MIN_SCALE_OUT_T4_SPEEDUP = 2.0

# SolverOptions::max_iterations: the most iterations a column's CG solve
# can report.
MAX_CG_ITERATIONS = 2000

# The seconds print with 4 decimals; the periods' phases may overshoot the
# build total by their summed rounding.
SECONDS_ROUNDING = 1e-3

EXPECTED_THREADS = [1, 2, 4, 8]
EXPECTED_DRAINS = [1, 2, 4]
SCENARIOS = ["uniform", "zipf", "commute_burst", "adversarial_cold",
             "duplicate_heavy"]
SCHEDULES = ["poisson", "bursty"]
DYNAMIC_SCENARIOS = ["incident_injection", "rush_hour_transition",
                     "rolling_closures"]
LATENCY = ["mean", "p50", "p95", "p99"]
PERIODS = ["off_peak", "peak"]
PHASE_SECONDS = ["learn_seconds", "adjacency_seconds", "solve_seconds",
                 "apply_seconds"]


def under(prefix, paths):
    return [f"{prefix}.{path}" for path in paths]


SCHEMA = {
    "fixture": ["bench", "unix_time", "dataset", "scale", "num_vertices",
                "num_edges", "num_queries", "failures", "mix", "methods",
                "deterministic_across_threads"],
    "offline_build": ["total_seconds", *under("periods[]", [
        "period", "regions", "t_edges", "b_edges", *PHASE_SECONDS, "m_nnz",
        "cg_iterations", "transfer_converged"])],
    "latency_us": LATENCY,
    "serving": ["workload_queries", "distinct_queries",
                *under("cache_off", LATENCY),
                *under("cache_on", LATENCY + ["hit_rate", "hits", "misses"])],
    "runs": ["[].threads", "[].qps"],
    "scenarios": [f"{name}.{key}" for name in SCENARIOS for key in (
        "slots", "distinct_used", "duplicate_fraction", "dedup_off.qps",
        "dedup_off.mean_us", "dedup_on.qps", "dedup_on.mean_us",
        "dedup_on.unique_routed", "dedup_on.duplicates_collapsed",
        "coalesced_identical", "deterministic_t1248")],
    "streaming": ["max_batch", "batch_deadline_us", "mean_gap_us"] + [
        f"{name}.{key}" for name in SCHEDULES for key in (
            "slots", "submitted", "completed", "qps", "batches",
            "closed_by_size", "closed_by_deadline", "closed_by_shutdown",
            *under("queue_wait_us", LATENCY), "batch_size_hist")],
    "deadline_sweep": ["max_batch", "mean_gap_us", *under("points[]", [
        "deadline_us", "qps", "mean_batch", "closed_by_size",
        "closed_by_deadline", *under("queue_wait_us", LATENCY)])],
    "overload_sweep": ["capacity_qps", "bulk_fraction", "slo_us", "ok",
                       *under("points[]", [
                           "multiplier", "slots", "offered_qps",
                           "goodput_qps", "submitted", "completed", "shed",
                           "conserved", "shed_status_ok",
                           "interactive.submitted", "interactive.shed",
                           "bulk.submitted", "bulk.shed",
                           *under("interactive_drain_wait_us", LATENCY),
                           *under("controller", [
                               "ticks", "overloaded_ticks", "deadline_cuts",
                               "deadline_recoveries", "level_raises",
                               "level_drops", "final_level",
                               "final_deadline_us"])])],
    "dynamic_world": ["pool_queries", "incident_sites", "ok",
                      "incident_repair_cost_ratio",
                      *under("scenarios[]", [
                          "name", "epochs_monotone", "stale_serves",
                          "restored_identical", *under("points[]", [
                              "kind", "epoch", "edges_touched",
                              "cached_entries", "invalidated", "staleness",
                              "repaired", "unroutable", "repair_settles",
                              "wholesale_settles", "repair_cost_ratio",
                              "stale_serves", "serve_misses"])])],
    "scale_ladder": under("scales[]", [
        "scale", "num_vertices", "num_edges", "world_bytes",
        "snapshot_bytes", "gen_seconds", "mmap_cold_start_seconds",
        "snapshot_backed", "queries", "qps",
        "mean_query_us", "reach_build_seconds", "reach_bytes"]),
    "scale_out": ["hw_threads", "single_core",
                  *under("serving_runs[]", ["threads", "qps", "identical"]),
                  *under("drain_audits[]", ["drains", "qps", "identical",
                                            "hits", "batches"])],
}

# Blocks L2R_BENCH_ONLY can leave out (written as null).
OPTIONAL = {"streaming", "deadline_sweep", "overload_sweep", "dynamic_world",
            "scale_ladder", "scale_out"}


def has_path(node, path):
    nodes = [node]
    for step in path.split("."):
        key, fan_out = (step[:-2], True) if step.endswith("[]") else (
            step, False)
        found = []
        for n in nodes:
            if key:
                if not isinstance(n, dict) or key not in n:
                    return False
                n = n[key]
            if fan_out:
                if not isinstance(n, list) or not n:
                    return False
                found.extend(n)
            else:
                found.append(n)
        nodes = found
    return True


class Checker:
    """The predicates. Violations collect in `errors`, each prefixed with
    the block name and the `where` of the failing element."""

    def __init__(self, block):
        self.block = block
        self.errors = []

    def fail(self, where, message):
        self.errors.append(f"{self.block}{where}: {message}")

    def true(self, flag, where, what):
        if flag is not True:
            self.fail(where, f"{what} is not true")

    def equal(self, got, want, where, what):
        if got != want:
            self.fail(where, f"{what} {got!r} != {want!r}")

    def positive(self, value, where, what):
        if not value > 0:
            self.fail(where, f"{what} {value} must be > 0")

    def in_range(self, value, where, what, lo=None, hi=None):
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            self.fail(where, f"{what} {value} outside [{lo}, {hi}]")

    def monotone(self, seq, where, what, strict=False, tolerance=1.0):
        """Each value >= tolerance x the largest before it (> when strict)."""
        for i in range(1, len(seq)):
            top = max(seq[:i])
            if seq[i] <= top if strict else seq[i] < top * tolerance:
                kind = "strictly increasing" if strict else "monotone"
                self.fail(where, f"{what} not {kind} (tolerance "
                                 f"{tolerance}): {seq}")
                return

    def conserved(self, parts, total, where, what):
        if sum(parts) != total:
            self.fail(where, f"{what}: {' + '.join(map(str, parts))} != "
                             f"{total}")

    def ratio(self, num, den, where, what, floor=None, below=None):
        """num / den >= the constant named `floor`, or < the one named
        `below`."""
        value = num / den
        if floor is not None and not value >= globals()[floor]:
            self.fail(where, f"{what} {value:.3f} below {floor} = "
                             f"{globals()[floor]}")
        if below is not None and not value < globals()[below]:
            self.fail(where, f"{what} {value:.3f} not below {below} = "
                             f"{globals()[below]}")

    def single_core_hatch(self, block):
        """Whether the t=4 floor is waived: `single_core` must be a boolean
        and may be true only on a 1-hardware-thread host."""
        single = block["single_core"]
        self.true(isinstance(single, bool), "", "single_core is a boolean")
        if single:
            self.equal(block["hw_threads"], 1, "",
                       "hw_threads with single_core: true")
        return single is True and block["hw_threads"] == 1


def check_latency(block, c, where=""):
    c.positive(block["mean"], where, "mean")
    c.monotone([block[k] for k in LATENCY[1:]], where, "p50/p95/p99")


def check_waits(block, c, where):
    c.in_range(block["mean"], where, "mean", lo=0)
    c.monotone([0] + [block[k] for k in LATENCY[1:]], where, "0/p50/p95/p99")


def check_fixture(doc, c):
    c.equal(doc["bench"], "query_throughput", "", "bench label")
    c.positive(doc["num_queries"], "", "num_queries")
    c.equal(doc["failures"], 0, "", "routing failures")
    c.true(doc["deterministic_across_threads"], "",
           "deterministic_across_threads")


def check_offline_build(block, c):
    periods = block["periods"]
    c.equal([p["period"] for p in periods], PERIODS, "", "periods")
    for p in periods:
        where = f"[{p['period']}]"
        for key in ("regions", "t_edges", "m_nnz"):
            c.positive(p[key], where, key)
        for key in ("b_edges", *PHASE_SECONDS):
            c.in_range(p[key], where, key, lo=0)
        c.in_range(p["cg_iterations"], where, "cg_iterations", 1,
                   MAX_CG_ITERATIONS)
        c.true(p["transfer_converged"], where, "transfer_converged")
    c.in_range(block["total_seconds"] -
               sum(p[key] for p in periods for key in PHASE_SECONDS), "",
               "total_seconds - the periods' phase seconds",
               lo=-SECONDS_ROUNDING)


def check_serving(block, c):
    check_latency(block["cache_off"], c, ".cache_off")
    on = block["cache_on"]
    check_latency(on, c, ".cache_on")
    c.in_range(on["hit_rate"], ".cache_on", "hit_rate", 0.0, 1.0)
    lookups = on["hits"] + on["misses"]
    if lookups > 0:
        c.in_range(on["hit_rate"] - on["hits"] / lookups, ".cache_on",
                   "hit_rate - hits / (hits + misses)", -1e-3, 1e-3)


def check_runs(runs, c):
    c.equal([r["threads"] for r in runs], EXPECTED_THREADS, "",
            "thread ladder")
    for r in runs:
        c.positive(r["qps"], f"[t={r['threads']}]", "qps")


def check_scenarios(block, c):
    for name in SCENARIOS:
        sc, where = block[name], f".{name}"
        c.positive(sc["slots"], where, "slots")
        c.in_range(sc["duplicate_fraction"], where, "duplicate_fraction",
                   0.0, 1.0)
        for mode in ("dedup_off", "dedup_on"):
            c.positive(sc[mode]["qps"], f"{where}.{mode}", "qps")
            c.positive(sc[mode]["mean_us"], f"{where}.{mode}", "mean_us")
        on = sc["dedup_on"]
        c.conserved([on["unique_routed"], on["duplicates_collapsed"]],
                    sc["slots"], where,
                    "unique_routed + duplicates_collapsed vs slots")
        c.true(sc["coalesced_identical"], where, "coalesced_identical")
        c.true(sc["deterministic_t1248"], where, "deterministic_t1248")
    heavy = block["duplicate_heavy"]
    c.ratio(heavy["dedup_on"]["qps"], heavy["dedup_off"]["qps"],
            ".duplicate_heavy", "dedup-on / dedup-off qps",
            floor="MIN_DUP_HEAVY_SPEEDUP")
    c.monotone([heavy["dedup_on"]["mean_us"], heavy["dedup_off"]["mean_us"]],
               ".duplicate_heavy", "dedup-on vs dedup-off mean_us",
               strict=True)


def check_streaming(block, c):
    for name in SCHEDULES:
        s, where = block[name], f".{name}"
        c.positive(s["slots"], where, "slots")
        c.equal([s["submitted"], s["completed"]], [s["slots"]] * 2, where,
                "[submitted, completed] vs slots")
        c.positive(s["qps"], where, "qps")
        c.positive(s["batches"], where, "batches")
        c.conserved([s["closed_by_size"], s["closed_by_deadline"],
                     s["closed_by_shutdown"]], s["batches"], where,
                    "close reasons vs batches")
        check_waits(s["queue_wait_us"], c, f"{where}.queue_wait_us")
        hist = s["batch_size_hist"]
        c.positive(len(hist), where, "batch_size_hist entries")
        for size in hist:
            c.in_range(int(size), where, "batch size", 1, block["max_batch"])
        c.conserved(list(hist.values()), s["batches"], where,
                    "batch_size_hist batches vs batches")
        c.conserved([int(size) * n for size, n in hist.items()],
                    s["submitted"], where,
                    "batch_size_hist queries vs submitted")


def check_deadline_sweep(block, c):
    points = block["points"]
    c.positive(block["max_batch"], "", "max_batch")
    c.monotone([0] + [p["deadline_us"] for p in points], "", "deadline_us",
               strict=True)
    c.monotone([p["mean_batch"] for p in points], "", "mean_batch",
               tolerance=DEADLINE_BATCH_TOLERANCE)
    for p in points:
        where = f"[deadline_us={p['deadline_us']}]"
        c.positive(p["qps"], where, "qps")
        c.in_range(p["mean_batch"], where, "mean_batch", 1.0,
                   block["max_batch"])
        check_waits(p["queue_wait_us"], c, f"{where}.queue_wait_us")


def check_overload_sweep(block, c):
    c.positive(block["capacity_qps"], "", "capacity_qps")
    c.true(block["ok"], "", "ok (every point conserved its callbacks and "
                            "shed with kResourceExhausted)")
    points = block["points"]
    peak = max(p["goodput_qps"] for p in points)
    for p in points:
        where = f"[x{p['multiplier']}]"
        inter, bulk = p["interactive"], p["bulk"]
        c.true(p["conserved"], where, "conserved")
        c.true(p["shed_status_ok"], where, "shed_status_ok")
        c.conserved([inter["submitted"], bulk["submitted"]], p["submitted"],
                    where, "per-class submitted")
        c.conserved([inter["shed"], bulk["shed"]], p["shed"], where,
                    "per-class shed")
        c.conserved([p["completed"], p["shed"]], p["submitted"], where,
                    "completed + shed vs submitted")
        wait = p["interactive_drain_wait_us"]
        check_waits(wait, c, f"{where}.interactive_drain_wait_us")
        c.in_range(wait["p99"], where, "interactive drain-wait p99",
                   hi=block["slo_us"] * OVERLOAD_SLO_NOISE_FACTOR)
        if p["shed"] > 0 and bulk["submitted"] > 0:
            inter_rate = (inter["shed"] / inter["submitted"]
                          if inter["submitted"] > 0 else 0.0)
            c.in_range(bulk["shed"] / bulk["submitted"], where,
                       "bulk shed rate (bulk sheds first)", lo=inter_rate)
        if p["multiplier"] >= 2.0:
            c.ratio(p["goodput_qps"], peak, where, "goodput / sweep peak",
                    floor="MIN_OVERLOAD_GOODPUT_FRACTION")
        c.positive(p["controller"]["ticks"], where, "controller ticks")


def check_dynamic_world(block, c):
    c.true(block["ok"], "", "ok (the in-bench gates)")
    c.positive(block["pool_queries"], "", "pool_queries")
    c.positive(block["incident_sites"], "", "incident_sites")
    scenarios = block["scenarios"]
    c.equal([s["name"] for s in scenarios], DYNAMIC_SCENARIOS, "",
            "scenarios")
    c.monotone([0] + [p["epoch"] for s in scenarios for p in s["points"]],
               "", "epochs across the suite", strict=True)
    for s in scenarios:
        where = f".{s['name']}"
        c.true(s["epochs_monotone"], where, "epochs_monotone")
        c.equal(s["stale_serves"], 0, where, "stale_serves")
        c.true(s["restored_identical"], where, "restored_identical")
        for p in s["points"]:
            pw = f"{where}[epoch={p['epoch']}]"
            c.equal(p["stale_serves"], 0, pw, "stale_serves")
            c.conserved([p["repaired"], p["unroutable"]],
                        p["invalidated"], pw,
                        "repaired + unroutable vs invalidated")
            c.in_range(p["invalidated"], pw, "invalidated", 0,
                       p["cached_entries"])
            c.in_range(p["staleness"], pw, "staleness", 0.0, 1.0)
            c.positive(p["wholesale_settles"], pw, "wholesale_settles")
    first = scenarios[0]["points"][0]
    c.equal(first["kind"], "inject", "", "first point kind")
    c.in_range(block["incident_repair_cost_ratio"] -
               first["repair_cost_ratio"], "",
               "incident_repair_cost_ratio - first point's", -1e-6, 1e-6)
    c.ratio(block["incident_repair_cost_ratio"], 1, "",
            "single-incident repair cost ratio",
            below="MAX_INCIDENT_REPAIR_COST_RATIO")


def check_scale_ladder(block, c):
    rungs = block["scales"]
    for key in ("scale", "num_vertices", "world_bytes"):
        c.monotone([r[key] for r in rungs], "", key, strict=True)
    for r in rungs:
        where = f"[scale={r['scale']}]"
        for key in ("num_vertices", "num_edges", "qps",
                    "mmap_cold_start_seconds", "reach_bytes"):
            c.positive(r[key], where, key)
        c.in_range(r["snapshot_bytes"] - r["world_bytes"], where,
                   "snapshot_bytes - world_bytes", 0,
                   MAX_SNAPSHOT_OVERHEAD_BYTES)


def check_scale_out(block, c):
    c.in_range(block["hw_threads"], "", "hw_threads", lo=1)
    single_core = c.single_core_hatch(block)
    runs = block["serving_runs"]
    c.equal([r["threads"] for r in runs], EXPECTED_THREADS, "",
            "serving ladder")
    for r in runs:
        where = f".serving_runs[t={r['threads']}]"
        c.positive(r["qps"], where, "qps")
        c.true(r["identical"], where, "identical")
    if not single_core:
        qps = {r["threads"]: r["qps"] for r in runs}
        c.ratio(qps[4], qps[1], "", f"t=4 / t=1 qps on a "
                f"{block['hw_threads']}-thread host",
                floor="MIN_SCALE_OUT_T4_SPEEDUP")
    audits = block["drain_audits"]
    c.equal([a["drains"] for a in audits], EXPECTED_DRAINS, "",
            "drain ladder")
    for a in audits:
        where = f".drain_audits[drains={a['drains']}]"
        c.positive(a["qps"], where, "qps")
        c.true(a["identical"], where, "identical")
        c.positive(a["batches"], where, "batches")


CHECKS = {
    "fixture": check_fixture,
    "offline_build": check_offline_build,
    "latency_us": check_latency,
    "serving": check_serving,
    "runs": check_runs,
    "scenarios": check_scenarios,
    "streaming": check_streaming,
    "deadline_sweep": check_deadline_sweep,
    "overload_sweep": check_overload_sweep,
    "dynamic_world": check_dynamic_world,
    "scale_ladder": check_scale_ladder,
    "scale_out": check_scale_out,
}


def check_doc(doc):
    """Every violation in a parsed artifact, one message each."""
    if not isinstance(doc, dict):
        return ["artifact: not a JSON object"]
    errors = []
    for name, check in CHECKS.items():
        c = Checker(name)
        block = doc if name == "fixture" else doc.get(name)
        if name != "fixture" and name not in doc:
            c.fail("", "missing block")
        elif block is None and name in OPTIONAL:
            continue  # left out by L2R_BENCH_ONLY
        else:
            missing = [p for p in SCHEMA[name] if not has_path(block, p)]
            for path in missing:
                c.fail("", f"missing '{path}'")
            try:
                if not missing:
                    check(block, c)
            except (KeyError, TypeError, ValueError, AttributeError,
                    IndexError, ZeroDivisionError) as error:
                c.fail("", f"malformed ({type(error).__name__}: {error})")
        errors += c.errors
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as f:
                errors = check_doc(json.load(f))
        except (OSError, ValueError) as error:
            errors = [f"unreadable: {error}"]
        for error in errors:
            print(f"bench_check: {path}: {error}", file=sys.stderr)
        if not errors:
            print(f"bench_check: {path}: OK")
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
