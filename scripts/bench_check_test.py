#!/usr/bin/env python3
"""Self-test of scripts/bench_check.py against the committed artifact.

Usage: python3 scripts/bench_check_test.py

Loads BENCH_query_throughput.json, applies a table of mutations (a
threshold crossed by a small epsilon, a conservation sum off by one, a
monotone sequence swapped, a flag set false, a required key dropped, ...)
and requires the checker to reject each one with a new message that
names the mutated block. Threshold mutations are also applied just
inside their bound, where the checker must accept them. Needs no build.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest
from operator import setitem

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import bench_check  # noqa: E402

ARTIFACT = os.path.join(HERE, "..", "BENCH_query_throughput.json")
EPS = 1e-6

# The only violation the committed artifact may carry: the scale_out t=4
# floor, which fails on multi-core hosts (ROADMAP item 3).
KNOWN_FAILURE = "scale_out: t=4 / t=1 qps"


def bump(obj, key, by):
    obj[key] += by


def swap(obj, a, b):
    obj[a], obj[b] = obj[b], obj[a]


def first_shedding(doc):
    return next(p for p in doc["overload_sweep"]["points"] if p["shed"] > 0)


def set_goodputs(doc, last_fraction):
    points = doc["overload_sweep"]["points"]
    peak = max(p["goodput_qps"] for p in points)
    for p in points:
        p["goodput_qps"] = peak
    points[-1]["goodput_qps"] = peak * last_fraction


def set_incident_ratio(doc, ratio):
    block = doc["dynamic_world"]
    block["incident_repair_cost_ratio"] = ratio
    block["scenarios"][0]["points"][0]["repair_cost_ratio"] = ratio


def move_one_batch(hist):
    size = min(hist, key=int)
    hist[size] -= 1
    bigger = str(int(size) + 1)
    hist[bigger] = hist.get(bigger, 0) + 1


def hit_rate_off_by(doc, delta):
    on = doc["serving"]["cache_on"]
    on["hit_rate"] = on["hits"] / (on["hits"] + on["misses"]) + delta


# (block, substring of the expected message, mutate(doc, s)): s = +1
# crosses the bound by EPS, s = -1 stays EPS inside it.
THRESHOLDS = [
    ("scenarios", "MIN_DUP_HEAVY_SPEEDUP", lambda d, s: setitem(
        d["scenarios"]["duplicate_heavy"]["dedup_on"], "qps",
        d["scenarios"]["duplicate_heavy"]["dedup_off"]["qps"]
        * (bench_check.MIN_DUP_HEAVY_SPEEDUP - s * EPS))),
    ("deadline_sweep", "mean_batch", lambda d, s: setitem(
        d["deadline_sweep"]["points"][-1], "mean_batch",
        max(p["mean_batch"] for p in d["deadline_sweep"]["points"][:-1])
        * (bench_check.DEADLINE_BATCH_TOLERANCE - s * EPS))),
    ("overload_sweep", "MIN_OVERLOAD_GOODPUT_FRACTION", lambda d, s:
        set_goodputs(d, bench_check.MIN_OVERLOAD_GOODPUT_FRACTION - s * EPS)),
    ("overload_sweep", "drain-wait p99", lambda d, s: setitem(
        d["overload_sweep"]["points"][0]["interactive_drain_wait_us"], "p99",
        d["overload_sweep"]["slo_us"]
        * bench_check.OVERLOAD_SLO_NOISE_FACTOR * (1 + s * EPS))),
    ("dynamic_world", "MAX_INCIDENT_REPAIR_COST_RATIO", lambda d, s:
        set_incident_ratio(
            d, bench_check.MAX_INCIDENT_REPAIR_COST_RATIO + s * EPS)),
    ("scale_ladder", "snapshot_bytes - world_bytes", lambda d, s: setitem(
        d["scale_ladder"]["scales"][0], "snapshot_bytes",
        d["scale_ladder"]["scales"][0]["world_bytes"]
        + bench_check.MAX_SNAPSHOT_OVERHEAD_BYTES + (1 if s > 0 else 0))),
    ("scale_out", "MIN_SCALE_OUT_T4_SPEEDUP", lambda d, s: setitem(
        d["scale_out"]["serving_runs"][2], "qps",
        d["scale_out"]["serving_runs"][0]["qps"]
        * (bench_check.MIN_SCALE_OUT_T4_SPEEDUP - s * EPS))),
    ("serving", "hit_rate - hits", lambda d, s:
        hit_rate_off_by(d, 1e-3 + s * EPS)),
]

# (block, substring of the expected message, mutate(doc)).
MUTATIONS = [
    # Ranges and bounds not covered above.
    ("scenarios", "duplicate_fraction", lambda d: setitem(
        d["scenarios"]["uniform"], "duplicate_fraction", 1 + EPS)),
    ("serving", "hit_rate", lambda d: setitem(
        d["serving"]["cache_on"], "hit_rate", 1 + EPS)),
    ("deadline_sweep", "mean_batch", lambda d: setitem(
        d["deadline_sweep"]["points"][0], "mean_batch",
        d["deadline_sweep"]["max_batch"] + 1)),
    ("streaming", "batch size", lambda d: setitem(
        d["streaming"]["poisson"]["batch_size_hist"],
        str(d["streaming"]["max_batch"] + 1), 0)),
    ("overload_sweep", "bulk sheds first", lambda d: (
        setitem(first_shedding(d)["interactive"], "shed",
                first_shedding(d)["shed"]),
        setitem(first_shedding(d)["bulk"], "shed", 0))),
    ("dynamic_world", "staleness", lambda d: setitem(
        d["dynamic_world"]["scenarios"][0]["points"][0], "staleness",
        1 + EPS)),
    ("dynamic_world", "invalidated", lambda d: setitem(
        d["dynamic_world"]["scenarios"][0]["points"][0], "cached_entries",
        d["dynamic_world"]["scenarios"][0]["points"][0]["invalidated"] - 1)),
    ("dynamic_world", "incident_repair_cost_ratio - first", lambda d:
        bump(d["dynamic_world"], "incident_repair_cost_ratio", -1e-4)),
    ("scale_ladder", "snapshot_bytes - world_bytes", lambda d: setitem(
        d["scale_ladder"]["scales"][0], "snapshot_bytes",
        d["scale_ladder"]["scales"][0]["world_bytes"] - 1)),
    ("offline_build", "cg_iterations", lambda d: setitem(
        d["offline_build"]["periods"][0], "cg_iterations",
        bench_check.MAX_CG_ITERATIONS + 1)),
    ("offline_build", "m_nnz", lambda d: setitem(
        d["offline_build"]["periods"][1], "m_nnz", 0)),
    ("offline_build", "total_seconds - the periods'", lambda d: setitem(
        d["offline_build"], "total_seconds", 0)),
    ("offline_build", "apply_seconds", lambda d: setitem(
        d["offline_build"]["periods"][0], "apply_seconds", -EPS)),
    ("offline_build", "learn searches + reused + pruned", lambda d: bump(
        d["offline_build"]["periods"][1], "learn_reused", 1)),
    ("offline_build", "learn searches + reused + pruned", lambda d: bump(
        d["offline_build"]["periods"][0], "learn_path_scores", -1)),
    ("offline_build", "learn_searches", lambda d: (
        bump(d["offline_build"]["periods"][0], "learn_pruned",
             d["offline_build"]["periods"][0]["learn_searches"]),
        setitem(d["offline_build"]["periods"][0], "learn_searches", 0))),
    ("fixture", "num_queries", lambda d: setitem(d, "num_queries", 0)),
    ("fixture", "routing failures", lambda d: setitem(d, "failures", 1)),
    ("fixture", "bench label", lambda d: setitem(d, "bench", "other")),
    ("runs", "qps", lambda d: setitem(d["runs"][0], "qps", 0)),
    ("overload_sweep", "controller ticks", lambda d: setitem(
        d["overload_sweep"]["points"][0]["controller"], "ticks", 0)),
    ("overload_sweep", "capacity_qps", lambda d: setitem(
        d["overload_sweep"], "capacity_qps", 0)),
    ("dynamic_world", "wholesale_settles", lambda d: setitem(
        d["dynamic_world"]["scenarios"][2]["points"][0],
        "wholesale_settles", 0)),
    ("scale_ladder", "mmap_cold_start_seconds", lambda d: setitem(
        d["scale_ladder"]["scales"][1], "mmap_cold_start_seconds", 0)),
    ("scale_out", "batches", lambda d: setitem(
        d["scale_out"]["drain_audits"][1], "batches", 0)),
    ("dynamic_world", "first point kind", lambda d: setitem(
        d["dynamic_world"]["scenarios"][0]["points"][0], "kind", "wave")),
    ("dynamic_world", "scenarios", lambda d:
        d["dynamic_world"]["scenarios"].reverse()),
    # Conservation sums off by one.
    ("scenarios", "unique_routed + duplicates_collapsed", lambda d: bump(
        d["scenarios"]["uniform"]["dedup_on"], "unique_routed", 1)),
    ("streaming", "[submitted, completed]", lambda d: bump(
        d["streaming"]["poisson"], "completed", -1)),
    ("streaming", "close reasons", lambda d: bump(
        d["streaming"]["bursty"], "closed_by_size", 1)),
    ("streaming", "batch_size_hist batches", lambda d: bump(
        d["streaming"]["bursty"]["batch_size_hist"],
        min(d["streaming"]["bursty"]["batch_size_hist"], key=int), 1)),
    ("streaming", "batch_size_hist queries", lambda d: move_one_batch(
        d["streaming"]["poisson"]["batch_size_hist"])),
    ("overload_sweep", "per-class submitted", lambda d: bump(
        d["overload_sweep"]["points"][-1]["interactive"], "submitted", 1)),
    ("overload_sweep", "per-class shed", lambda d: bump(
        d["overload_sweep"]["points"][-1]["bulk"], "shed", 1)),
    ("overload_sweep", "completed + shed", lambda d: bump(
        d["overload_sweep"]["points"][0], "completed", 1)),
    ("fixture", "mix vs num_queries", lambda d: bump(
        d["mix"], "out_region", 1)),
    ("fixture", "methods vs num_queries - failures", lambda d: bump(
        d["methods"], "preference", -1)),
    ("fixture", "methods vs num_queries - failures", lambda d: bump(
        d, "failures", 1)),
    ("dynamic_world", "repaired + unroutable", lambda d: bump(
        d["dynamic_world"]["scenarios"][0]["points"][0], "repaired", 1)),
    ("dynamic_world", "repaired + unroutable", lambda d: bump(
        d["dynamic_world"]["scenarios"][1]["points"][0], "unroutable", 1)),
    # Monotone sequences swapped.
    ("latency_us", "p50/p95/p99", lambda d: swap(
        d["latency_us"], "p50", "p99")),
    ("serving", "p50/p95/p99", lambda d: swap(
        d["serving"]["cache_off"], "p50", "p99")),
    ("serving", "p50/p95/p99", lambda d: swap(
        d["serving"]["cache_on"], "p50", "p99")),
    ("streaming", "0/p50/p95/p99", lambda d: swap(
        d["streaming"]["poisson"]["queue_wait_us"], "p50", "p99")),
    ("deadline_sweep", "deadline_us", lambda d: swap(
        d["deadline_sweep"]["points"], 0, 1)),
    ("deadline_sweep", "0/p50/p95/p99", lambda d: swap(
        d["deadline_sweep"]["points"][0]["queue_wait_us"], "p50", "p99")),
    ("overload_sweep", "0/p50/p95/p99", lambda d: swap(
        d["overload_sweep"]["points"][0]["interactive_drain_wait_us"],
        "p50", "p99")),
    ("dynamic_world", "epochs across the suite", lambda d: swap(
        d["dynamic_world"]["scenarios"][0]["points"], 0, 1)),
    ("scale_ladder", "scale", lambda d: swap(
        d["scale_ladder"]["scales"], 0, 1)),
    ("scenarios", "mean_us", lambda d: setitem(
        d["scenarios"]["duplicate_heavy"]["dedup_on"], "mean_us",
        d["scenarios"]["duplicate_heavy"]["dedup_off"]["mean_us"])),
    ("runs", "thread ladder", lambda d: swap(d["runs"], 0, 1)),
    ("offline_build", "periods", lambda d: swap(
        d["offline_build"]["periods"], 0, 1)),
    ("scale_out", "serving ladder", lambda d: swap(
        d["scale_out"]["serving_runs"], 0, 3)),
    ("scale_out", "drain ladder", lambda d: swap(
        d["scale_out"]["drain_audits"], 0, 2)),
    # Flags set false.
    ("offline_build", "transfer_converged", lambda d: setitem(
        d["offline_build"]["periods"][1], "transfer_converged", False)),
    ("fixture", "deterministic_across_threads", lambda d: setitem(
        d, "deterministic_across_threads", False)),
    ("scenarios", "coalesced_identical", lambda d: setitem(
        d["scenarios"]["zipf"], "coalesced_identical", False)),
    ("scenarios", "deterministic_t1248", lambda d: setitem(
        d["scenarios"]["commute_burst"], "deterministic_t1248", False)),
    ("overload_sweep", "ok", lambda d: setitem(
        d["overload_sweep"], "ok", False)),
    ("overload_sweep", "conserved", lambda d: setitem(
        d["overload_sweep"]["points"][1], "conserved", False)),
    ("overload_sweep", "shed_status_ok", lambda d: setitem(
        d["overload_sweep"]["points"][2], "shed_status_ok", False)),
    ("dynamic_world", "ok", lambda d: setitem(
        d["dynamic_world"], "ok", False)),
    ("dynamic_world", "epochs_monotone", lambda d: setitem(
        d["dynamic_world"]["scenarios"][1], "epochs_monotone", False)),
    ("dynamic_world", "restored_identical", lambda d: setitem(
        d["dynamic_world"]["scenarios"][2], "restored_identical", False)),
    ("dynamic_world", "stale_serves", lambda d: setitem(
        d["dynamic_world"]["scenarios"][0], "stale_serves", 1)),
    ("dynamic_world", "stale_serves", lambda d: setitem(
        d["dynamic_world"]["scenarios"][1]["points"][0], "stale_serves", 1)),
    ("scale_out", "identical", lambda d: setitem(
        d["scale_out"]["serving_runs"][1], "identical", False)),
    ("scale_out", "identical", lambda d: setitem(
        d["scale_out"]["drain_audits"][2], "identical", False)),
    ("scale_out", "hw_threads with single_core", lambda d: (
        setitem(d["scale_out"], "single_core", True),
        setitem(d["scale_out"], "hw_threads", 4))),
    # One required key dropped per block, and whole blocks missing.
    ("fixture", "missing 'mix'", lambda d: d.pop("mix")),
    ("fixture", "missing 'methods.method_settles.preference'", lambda d:
        d["methods"]["method_settles"].pop("preference")),
    ("offline_build", "missing 'periods[].solve_seconds'", lambda d:
        d["offline_build"]["periods"][0].pop("solve_seconds")),
    ("offline_build", "missing 'periods[].learn_pruned'", lambda d:
        d["offline_build"]["periods"][1].pop("learn_pruned")),
    ("latency_us", "missing 'p95'", lambda d: d["latency_us"].pop("p95")),
    ("serving", "missing 'cache_on.hit_rate'", lambda d:
        d["serving"]["cache_on"].pop("hit_rate")),
    ("runs", "missing '[].qps'", lambda d: d["runs"][0].pop("qps")),
    ("scenarios", "missing 'zipf.dedup_on", lambda d:
        d["scenarios"]["zipf"].pop("dedup_on")),
    ("streaming", "missing 'bursty.batch_size_hist'", lambda d:
        d["streaming"]["bursty"].pop("batch_size_hist")),
    ("deadline_sweep", "missing 'points[].queue_wait_us", lambda d:
        d["deadline_sweep"]["points"][2].pop("queue_wait_us")),
    ("overload_sweep", "missing 'points[].controller", lambda d:
        d["overload_sweep"]["points"][0].pop("controller")),
    ("dynamic_world", "serve_misses", lambda d:
        d["dynamic_world"]["scenarios"][1]["points"][0].pop("serve_misses")),
    ("scale_ladder", "mmap_cold_start_seconds", lambda d:
        d["scale_ladder"]["scales"][0].pop("mmap_cold_start_seconds")),
    ("scale_ladder", "snapshot_backed", lambda d:
        d["scale_ladder"]["scales"][1].pop("snapshot_backed")),
    ("scale_out", "missing 'drain_audits", lambda d:
        d["scale_out"].pop("drain_audits")),
    ("streaming", "missing block", lambda d: d.pop("streaming")),
    ("scenarios", "missing", lambda d: setitem(d, "scenarios", None)),
]


def load_base():
    with open(ARTIFACT, encoding="utf-8") as f:
        return json.load(f)


def all_mutations():
    """(label, block, substring, mutate(doc)) for every rejected mutation:
    the MUTATIONS table plus each THRESHOLDS entry crossed by EPS."""
    out = [(f"{block}: {want}", block, want, fn)
           for block, want, fn in MUTATIONS]
    out += [(f"{block}: {want} crossed", block, want,
             lambda d, fn=fn: fn(d, +1)) for block, want, fn in THRESHOLDS]
    return out


class BenchCheckTest(unittest.TestCase):
    def setUp(self):
        self.base = load_base()
        self.base_errors = bench_check.check_doc(self.base)

    def new_errors(self, mutate):
        doc = copy.deepcopy(self.base)
        mutate(doc)
        return [e for e in bench_check.check_doc(doc)
                if e not in self.base_errors]

    def test_committed_artifact_passes_all_but_the_known_floor(self):
        for error in self.base_errors:
            self.assertTrue(error.startswith(KNOWN_FAILURE), error)

    def test_every_mutation_is_rejected_naming_its_block(self):
        for label, block, want, mutate in all_mutations():
            with self.subTest(label):
                errors = self.new_errors(mutate)
                self.assertTrue(
                    any(e.startswith(block) and want in e for e in errors),
                    f"{label}: got {errors}")

    def test_thresholds_accept_values_just_inside(self):
        for block, want, mutate in THRESHOLDS:
            with self.subTest(f"{block}: {want}"):
                doc = copy.deepcopy(self.base)
                mutate(doc, -1)
                errors = [e for e in bench_check.check_doc(doc)
                          if want in e]
                self.assertEqual(errors, [])

    def test_blocks_left_out_by_only_are_accepted_as_null(self):
        doc = copy.deepcopy(self.base)
        for block in bench_check.OPTIONAL:
            doc[block] = None
        for error in bench_check.check_doc(doc):
            self.fail(error)

    def test_cli_rejects_a_truncated_file(self):
        with open(ARTIFACT, encoding="utf-8") as f:
            text = f.read()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "truncated.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text[: len(text) // 2])
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "bench_check.py"), path],
                capture_output=True, text=True, check=False)
        self.assertEqual(run.returncode, 1)
        self.assertIn(f"{path}: unreadable", run.stderr)


if __name__ == "__main__":
    unittest.main()
