"""Metrics warehouse benchmark: sqlite archive vs JSONL reload.

Before the warehouse, every consumer of historical metrics (miner,
doomed predictors, surrogate pre-training) paid the legacy cost per
session: reload the whole JSONL file, re-parse every line, then filter
in memory.  The sqlite backend pays parsing once at ingest and answers
cross-campaign queries off indexes.  This benchmark times one *query
session* — open the store, list runs per campaign, pull run vectors
and the dense ``run_vectors_matrix`` training basis — against the same
record stream persisted both ways.

Checks (exit code 1 on failure):

- every query answer is identical between the two backends
  (``bit_identical``: runs lists, per-run vectors, matrix contents);
- the sqlite session clears ``MIN_SPEEDUP`` (3x) over the JSONL-reload
  session.

The two sessions are timed in interleaved pairs (``--pairs``, 9 in
smoke mode; the backend that goes first alternates), and the gate reads
the median of the per-pair ratios, so a load spike hits both sides of a
pair instead of one side's whole block.  The reported ``jsonl_ms`` /
``sqlite_ms`` are the per-side medians.
``--json PATH`` merges a machine-readable summary into ``PATH`` under
the ``"metrics"`` key (see ``make bench-trajectory``); ``--smoke``
shrinks the stream and repetitions for CI while keeping every
assertion.

Usage::

    PYTHONPATH=src python benchmarks/metrics_warehouse_benchmark.py
    PYTHONPATH=src python benchmarks/metrics_warehouse_benchmark.py \
        --smoke --json BENCH_metrics.json
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from vectorized_sta_benchmark import merge_json  # noqa: E402

BASIS = ["flow.area", "flow.achieved_ghz", "signoff.wns", "place.hpwl"]
CAMPAIGNS = ("c0", "c1", "c2", "c3")
#: required sqlite-vs-jsonl-reload speedup (median per-pair ratio)
MIN_SPEEDUP = 3.0
SMOKE_PAIRS = 9


def make_records(n_runs, seed=0):
    """A deterministic multi-campaign stream: every run carries the
    full metric basis plus refinement duplicates."""
    from repro.metrics import MetricRecord
    from repro.metrics.store import stamp_campaign

    rng = np.random.default_rng(seed)
    records = []
    seq = 0
    for i in range(n_runs):
        campaign = CAMPAIGNS[i % len(CAMPAIGNS)]
        design = "alpha" if i % 3 else "beta"
        run_id = f"{campaign}-run{i:05d}"
        for metric in BASIS + ["flow.success"]:
            value = float(rng.normal(100.0, 30.0))
            records.append(stamp_campaign(MetricRecord(
                design=design, run_id=run_id, tool="spr_flow",
                metric=metric, value=value, sequence=seq), campaign))
            seq += 1
        # one refined re-report, as tools overwrite while converging
        records.append(stamp_campaign(MetricRecord(
            design=design, run_id=run_id, tool="spr_flow",
            metric="flow.area", value=float(rng.normal(100.0, 30.0)),
            sequence=seq), campaign))
        seq += 1
    return records


def query_session(store):
    """The consumer workload: cross-campaign run listing, the dense
    training matrix, and a sample of run vectors."""
    out = []
    runs_all = store.runs()
    out.append(runs_all)
    for campaign in CAMPAIGNS:
        out.append(store.runs(campaign=campaign))
    rows, matrix = store.run_vectors_matrix(BASIS)
    out.append((rows, matrix.tolist()))
    for run_id in runs_all[::7]:
        out.append(sorted(store.run_vector(run_id).items()))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=800,
                        help="flow runs in the synthetic archive")
    parser.add_argument("--pairs", type=int, default=15,
                        help="interleaved jsonl/sqlite session pairs "
                             "(the gate reads the median ratio)")
    parser.add_argument("--smoke", action="store_true",
                        help="smaller archive, fewer repetitions (CI); "
                             "same assertions")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="merge a 'metrics' summary section into PATH")
    args = parser.parse_args(argv)
    n_runs = 200 if args.smoke else args.runs
    pairs = SMOKE_PAIRS if args.smoke else args.pairs

    from repro.metrics import JsonlStore, SqliteStore

    records = make_records(n_runs)
    failures = []
    with tempfile.TemporaryDirectory(prefix="metrics-bench-") as tmp:
        jsonl_path = os.path.join(tmp, "archive.jsonl")
        sqlite_path = os.path.join(tmp, "archive.sqlite")

        t0 = time.perf_counter()
        with JsonlStore(jsonl_path) as writer:
            writer.ingest(records)
        jsonl_ingest_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        with SqliteStore(sqlite_path) as store:
            store.ingest(records)
        sqlite_ingest_s = time.perf_counter() - t0

        def timed(store_cls, path):
            """One query session (a JSONL one is the legacy reload);
            returns (answers, seconds)."""
            t0 = time.perf_counter()
            with store_cls(path) as store:
                answers = query_session(store)
            return answers, time.perf_counter() - t0

        timed(JsonlStore, jsonl_path)  # warm both paths once, untimed
        timed(SqliteStore, sqlite_path)
        jsonl_times, sqlite_times, ratios = [], [], []
        for k in range(pairs):
            if k % 2:
                sqlite_answers, t_sqlite = timed(SqliteStore, sqlite_path)
                jsonl_answers, t_jsonl = timed(JsonlStore, jsonl_path)
            else:
                jsonl_answers, t_jsonl = timed(JsonlStore, jsonl_path)
                sqlite_answers, t_sqlite = timed(SqliteStore, sqlite_path)
            jsonl_times.append(t_jsonl)
            sqlite_times.append(t_sqlite)
            ratios.append(t_jsonl / t_sqlite if t_sqlite > 0 else float("inf"))
        jsonl_s = statistics.median(jsonl_times)
        sqlite_s = statistics.median(sqlite_times)

        bit_identical = jsonl_answers == sqlite_answers
        speedup = statistics.median(ratios)

        if not bit_identical:
            failures.append("sqlite answers differ from the JSONL reload")
        if speedup < MIN_SPEEDUP:
            failures.append(f"warehouse speedup {speedup:.1f}x below the "
                            f"{MIN_SPEEDUP:.1f}x floor")

        print(f"archive: {len(records)} records over {n_runs} runs, "
              f"{len(CAMPAIGNS)} campaigns "
              f"(ingest: jsonl {jsonl_ingest_s * 1e3:.1f} ms, "
              f"sqlite {sqlite_ingest_s * 1e3:.1f} ms)")
        print(f"query session, median of {pairs} pairs: jsonl reload "
              f"{jsonl_s * 1e3:.1f} ms, sqlite {sqlite_s * 1e3:.1f} ms, "
              f"per-pair ratio {speedup:.1f}x (range {min(ratios):.1f}-"
              f"{max(ratios):.1f}x), "
              f"identical={'yes' if bit_identical else 'NO'}")

        if args.json:
            merge_json(args.json, "metrics", {
                "bit_identical": bit_identical,
                "records": len(records),
                "runs": n_runs,
                "jsonl_ms": round(jsonl_s * 1e3, 4),
                "sqlite_ms": round(sqlite_s * 1e3, 4),
                "speedup": round(speedup, 2),
            })
            print(f"wrote 'metrics' section to {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
