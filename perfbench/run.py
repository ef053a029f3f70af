"""End-to-end wall/proxy benchmark of the SP&R flow, executor, DSE and metrics layers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flow-corpus --seed 1 --seconds 15 --trace 0

Workloads: ``flow-corpus``, ``flow-scale``, ``knob-sweep`` and
``campaign-explore`` (see ``perfbench/README.md`` for why each exists).

A run sets up (imports, warm-up flow, kill-policy training, pool start,
warehouse creation), then repeats passes over the workload's fixed job
list until ``--seconds`` have elapsed (at least two passes), checks the
outputs, and prints a table of every metric followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs
untraced passes for the first half of the time and traced passes for
the rest, and reports the per-layer metrics from the traced ones, the
tracing overhead, a per-span self-time table and a wall-vs-proxy table
per stage; the spans are written as Chrome trace-event JSON to
``.perfbench/trace-<workload>-seed<seed>.json`` (open it in Perfetto).
Set-up is measured three times per run (once in-process, twice in fresh
interpreters) and reported as the median.

The exit code is 1 when any output check fails.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from workloads import WORKLOADS, kill_audit, same  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: calibrate() on an unloaded 2-core x86 host; every reported time is
#: scaled to this speed (see calibrate)
REFERENCE_CALIBRATION_S = 0.1
MIN_PASSES = 2
SETUP_SAMPLES = 3
STAGES = ("synth", "floorplan", "place", "cts", "groute", "opt", "droute_signoff")


def calibrate() -> float:
    """Seconds this host now takes for a fixed mix of numpy and
    interpreter work that shares no code with the program under test.

    The host's speed swings by up to 2x for tens of seconds at a time
    (other tenants); a time measured next to a calibration and scaled by
    ``REFERENCE_CALIBRATION_S / calibrate()`` moves with the program, not
    with the neighbours.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(80):
        x = rng.random(5000)
        total += float(np.cumsum(x[np.argsort(x)])[-1])
        m = rng.random((80, 80)) + 80 * np.eye(80)
        total += float(np.linalg.solve(m, x[:80]).sum())
    table = {}
    for i in range(400000):
        key = (i * 7919) % 1543
        table[key] = table.get(key, 0.0) + i * 0.5
    total += sum(sorted(table.values()))
    return time.perf_counter() - start


def _prepare_environment() -> Path:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    out = ROOT / ".perfbench"
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # keep multiprocessing's sockets inside the checkout when the path
    # fits an AF_UNIX address (108 bytes, with ~40 for pymp-*/listener-*)
    if len(str(tmp)) <= 64:
        os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = str(tmp)
    return out


def _setup(workload) -> dict:
    """Set-up times by component, in reference seconds."""
    started = time.perf_counter()
    parts = workload.setup()
    parts["import_s"] += started - T_START
    parts["total_s"] = time.perf_counter() - T_START
    speed = REFERENCE_CALIBRATION_S / calibrate()
    return {key: value * speed for key, value in parts.items()}


def _setup_samples(args, first: dict) -> list:
    """The in-process set-up plus fresh-interpreter repeats."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _median_part(samples: list, key: str) -> float:
    return statistics.median(s.get(key, 0.0) for s in samples)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest (waited-for) worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _repeat(fn, seconds: float, minimum: int) -> list:
    """Passes until ``seconds`` have elapsed, each given the speed factor
    of the calibrations on either side of it."""
    passes, start = [], time.perf_counter()
    before = calibrate()
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        one = fn()
        after = calibrate()
        one.speed = REFERENCE_CALIBRATION_S / ((before + after) / 2.0)
        before = after
        passes.append(one)
    return passes


def _determinism(passes) -> list:
    return [f"pass {i} outputs differ from pass 0"
            for i, one in enumerate(passes[1:], 1)
            if not same(passes[0].fingerprint, one.fingerprint)]


def _errors(passes) -> int:
    from repro.core.parallel import FlowExecutionError

    return sum(isinstance(r, FlowExecutionError) for p in passes for r in p.results)


# ------------------------------------------------------------ end to end
def end_to_end(args, workload, setup_first: dict, _out: Path) -> tuple:
    from repro.dse import OBJECTIVES
    from repro.eda.flow import FlowResult

    passes = _repeat(workload.run_pass, args.seconds, MIN_PASSES)
    problems = _determinism(passes) + workload.check_run(passes)
    rss = _peak_rss_mb()
    setups = _setup_samples(args, setup_first)

    attempted = sum(len(p.results) for p in passes)
    failed = _errors(passes) + len(problems)
    walls = [p.wall * p.speed for p in passes]
    units = [u * p.speed for p in passes for u in p.units]
    completed = [r for r in passes[0].results if isinstance(r, FlowResult)]
    score = OBJECTIVES["score"]()
    metrics = {
        "setup_s": (_median_part(setups, "total_s"), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_s": (statistics.median(units), "s"),
        "job_p90_s": (statistics.quantiles(units, n=10, method="inclusive")[-1], "s"),
        "runtime_proxy": (passes[0].proxy_executed, "units"),
        "best_score": (max(score.value(r) for r in completed), "score"),
        "success_share": (sum(r.success for r in completed) / len(completed), "ratio"),
        "ok_share": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    q1, _, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    beyond = sum(u > metrics["job_p90_s"][0] for u in units)
    raw = statistics.median(p.wall for p in passes)
    notes = {
        "wall_s": f"n={len(walls)} q1={q1:.4f} q3={q3:.4f} raw={raw:.4f}",
        "job_p50_s": f"n={len(units)}",
        "job_p90_s": f"n={len(units)}, {beyond} beyond"
                     + ("" if beyond >= 10 else " (fewer than 10: a tail estimate)"),
        "setup_s": "samples=" + ",".join(f"{s['total_s']:.3f}" for s in setups),
    }
    return metrics, notes, attempted, failed, problems


# ------------------------------------------------------------ per layer
def per_layer(args, workload, setup_first: dict, out: Path) -> tuple:
    from tracing import Tracer

    half = args.seconds / 2.0
    untraced = _repeat(workload.run_pass, half, 1)
    problems = _determinism(untraced)
    if workload.traced_workers is None:
        baseline = untraced
    else:
        # pool workers' spans are out of process: trace one serial pass
        # (every job of the pass) and compare it with an untraced serial
        # pass for the overhead
        baseline = _repeat(lambda: workload.run_pass(workers=workload.traced_workers),
                           0.0, 1)
        if not same(untraced[0].fingerprint, baseline[0].fingerprint):
            problems.append(f"untraced pass at {workload.traced_workers} "
                            "worker(s) differs")
    tracer = Tracer()
    tracer.install()
    try:
        traced = _repeat(workload.run_traced_pass, half, 1)
    finally:
        tracer.uninstall()
    problems += workload.check_traced(untraced, traced)
    type1 = kill_audit(traced[0]) if traced[0].campaigns else 0
    setups = _setup_samples(args, setup_first)

    n = len(traced)
    overhead = (statistics.median(p.wall * p.speed for p in traced)
                - statistics.median(p.wall * p.speed for p in baseline))
    speed = statistics.median(p.speed for p in traced)
    metrics = layer_metrics(tracer, traced, setups, n, speed)
    metrics["dse.kill_type1"] = (float(type1), "count")
    metrics["trace.overhead_s"] = (overhead, "s")

    path = out / f"trace-{workload.name}-seed{args.seed}.json"
    tracer.write_chrome(str(path), {"workload": workload.name, "seed": args.seed,
                                    "traced_passes": n})
    print(f"# {workload.name}: {len(tracer.spans)} spans over {n} traced pass(es) "
          f"-> {path.relative_to(ROOT)}")
    print("# per-span self time (all traced passes)")
    print(tracer.self_time_table())
    print(wall_vs_proxy(tracer))
    attempted = sum(len(p.results) for p in untraced + traced)
    failed = _errors(untraced + traced) + len(problems)
    return metrics, {}, attempted, failed, problems


def layer_metrics(tracer, traced, setups, n: int, speed: float) -> dict:
    """Per-pass layer metrics; span times in reference seconds."""
    totals, selfs, calls = tracer.totals(), tracer.self_times(), tracer.calls()

    def per_pass(value: float) -> float:
        return value / n

    def seconds(value: float) -> float:
        return value / n * speed

    m = {}
    for stage in STAGES:
        name = f"stage.{stage}"
        m[f"{name}.wall_s"] = (seconds(totals.get(name, 0.0)), "s")
        m[f"{name}.proxy"] = (per_pass(tracer.arg_sums(name).get("proxy", 0.0)), "units")
        m[f"{name}.scale_exp"] = (scale_exponent(tracer, name), "ratio")
    for metric, span in (("placement.quadratic_s", "placement.quadratic"),
                         ("placement.anneal_s", "placement.anneal"),
                         ("sta.full_propagate_s", "sta.full_propagate"),
                         ("sta.update_s", "sta.update"),
                         ("opt.optimize_s", "opt.optimize"),
                         ("opt.fix_hold_s", "opt.fix_hold"),
                         ("routing.global_s", "routing.global"),
                         ("routing.detailed_s", "routing.detailed"),
                         ("synthesis.synthesize_s", "synthesis.synthesize"),
                         ("cts.synthesize_s", "cts.synthesize"),
                         ("stage_cache.get_s", "stage_cache.get"),
                         ("stage_cache.put_s", "stage_cache.put"),
                         ("dse.strategy_s", "dse.engine"),
                         ("dse.kill_s", "dse.kill"),
                         ("metrics.ingest_s", "metrics.ingest"),
                         ("metrics.flush_s", "metrics.flush"),
                         ("metrics.read_s", "metrics.read")):
        m[metric] = (seconds(selfs.get(span, 0.0)), "s")
    m["executor.batch_s"] = (seconds(totals.get("executor.batch", 0.0)), "s")
    m["executor.job_busy_s"] = (seconds(totals.get("executor.job", 0.0)), "s")
    for metric, span in (("sta.full_propagate_calls", "sta.full_propagate"),
                         ("sta.update_calls", "sta.update"),
                         ("stage_cache.gets", "stage_cache.get"),
                         ("dse.kill_calls", "dse.kill")):
        m[metric] = (per_pass(calls.get(span, 0)), "count")
    m["sta.nodes_propagated"] = (
        per_pass(tracer.arg_sums("stage.droute_signoff").get("sta_nodes", 0.0)), "count")
    m["routing.detailed_iterations"] = (
        per_pass(tracer.arg_sums("routing.detailed").get("iterations", 0.0)), "count")

    cache = tracer.arg_sums("stage_cache.get")
    gets = calls.get("stage_cache.get", 0)
    m["stage_cache.hits"] = (per_pass(cache.get("hit", 0.0)), "count")
    m["stage_cache.hit_ratio"] = (cache.get("hit", 0.0) / gets if gets else 0.0, "ratio")
    m["stage_cache.proxy_saved"] = (per_pass(cache.get("proxy_saved", 0.0)), "units")

    m["executor.overhead_s"] = (seconds(executor_overhead(tracer)), "s")
    stats = [s for p in traced for s in p.executor_stats]
    submitted = sum(s.jobs_submitted for s in stats)
    hits = sum(s.cache_hits + s.deduped for s in stats)
    m["executor.jobs_run"] = (per_pass(sum(s.jobs_run for s in stats)), "count")
    m["executor.retries"] = (per_pass(sum(s.retries for s in stats)), "count")
    m["executor.timeouts"] = (per_pass(sum(s.timeouts for s in stats)), "count")
    m["result_cache.hits"] = (per_pass(hits), "count")
    m["result_cache.hit_ratio"] = (hits / submitted if submitted else 0.0, "ratio")

    campaigns = [c for p in traced for c in p.campaigns]
    m["dse.runs"] = (per_pass(sum(c.n_runs for c in campaigns)), "count")
    m["dse.kills"] = (per_pass(sum(c.n_killed for c in campaigns)), "count")
    m["dse.kill_proxy_saved"] = (per_pass(sum(c.kill_proxy_saved for c in campaigns)),
                                 "units")
    m["metrics.records"] = (per_pass(sum(p.records for p in traced)), "count")

    m["setup.import_s"] = (_median_part(setups, "import_s"), "s")
    m["setup.kill_train_s"] = (_median_part(setups, "kill_train_s"), "s")
    m["setup.pool_start_s"] = (_median_part(setups, "pool_start_s"), "s")
    return m


def executor_overhead(tracer) -> float:
    """Batch wall minus busy job time divided by the number of workers."""
    busy = {}
    for span in tracer.spans:
        if span.name == "executor.job" and span.parent is not None:
            busy[span.parent] = busy.get(span.parent, 0.0) + span.duration
    total = 0.0
    for index, span in enumerate(tracer.spans):
        if span.name == "executor.batch":
            total += span.duration - busy.get(index, 0.0) / span.args["n_workers"]
    return total


def scale_exponent(tracer, stage_span: str) -> float:
    """Log-log slope of a stage's mean wall per flow between the two
    largest designs, when they differ at least 1.5x in instance count
    (the 4x and 8x rungs of flow-scale); 0 otherwise."""
    groups = {}
    for span in tracer.spans:
        if span.name == stage_span and "instances" in span.args:
            group = groups.setdefault(span.args["gates"], [0.0, 0.0, 0])
            group[0] += span.duration
            group[1] += span.args["instances"]
            group[2] += 1
    points = sorted((size / k, wall / k) for wall, size, k in groups.values())
    if len(points) < 2 or points[-1][0] < 1.5 * points[-2][0]:
        return 0.0
    (n1, t1), (n2, t2) = points[-2], points[-1]
    return math.log(t2 / t1) / math.log(n2 / n1)


def wall_vs_proxy(tracer) -> str:
    totals = tracer.totals()
    walls = {s: totals.get(f"stage.{s}", 0.0) for s in STAGES}
    proxies = {s: tracer.arg_sums(f"stage.{s}").get("proxy", 0.0) for s in STAGES}
    wall_sum = sum(walls.values()) or 1.0
    proxy_sum = sum(proxies.values()) or 1.0
    lines = ["# stage share of wall time vs share of runtime_proxy (executed stages)",
             f"{'stage':<16} {'wall_s':>10} {'wall%':>7} {'proxy':>14} {'proxy%':>7}"]
    for s in STAGES:
        lines.append(f"{s:<16} {walls[s]:>10.4f} {100 * walls[s] / wall_sum:>6.1f}% "
                     f"{proxies[s]:>14.1f} {100 * proxies[s] / proxy_sum:>6.1f}%")
    return "\n".join(lines)


# ------------------------------------------------------------ entry point
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the timings as JSON and exit "
                             "(the benchmark's own set-up repeats)")
    args = parser.parse_args(argv)
    out = _prepare_environment()

    workload = WORKLOADS[args.workload](args.seed, str(out))
    setup_first = _setup(workload)
    if args.setup_only:
        print(json.dumps(setup_first))
        return 0

    measure = per_layer if args.trace else end_to_end
    metrics, notes, attempted, failed, problems = measure(args, workload,
                                                          setup_first, out)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>16.6f} {unit:<6} {notes.get(name, '')}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
