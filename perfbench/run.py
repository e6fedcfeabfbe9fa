"""Crawl-engine benchmark: one workload per invocation.

    python3 perfbench/run.py --workload crawl_heavy --seed 1 --seconds 4 --trace 0

Works from any working directory.  Inputs are made from ``--seed`` and
cached (untimed) under ``perfbench/.state``.  A crawl run repeats whole
crawl jobs (construct, run, check, shut down) until their ``CrawlJob.run``
time reaches ``--seconds``, at least twice; the ops run executes the
operator suite once per pass until the passes reach ``--seconds``, at least
``MIN_PASSES`` times, and rates the suite by each query's median time, so a
query's first-execution cost or one slow pass does not move the figure.

``--trace 0`` reports the end-to-end metrics (tracing off); throughput and
set-up time are taken with the hypervisor's stolen share of each window
removed (``unstolen_s``), and the raw wall figures are printed beside them.  ``--trace 1``
runs the workload once, replays each layer's public calls on that run's
epoch tables with a span around every call, writes the spans to
``perfbench/.state/traces/`` and reports the per-layer metrics.  Every run
checks its outputs (simulator parity, image payloads, routed-site truth,
gate-count reconciliation, DuckDB oracles) and prints, as its last stdout
line, ``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the host context and the per-sample details.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_ROUNDS = 12
MIN_JOBS = 2
MIN_PASSES = 4
OBJECT_STORE_MB = 400
# Ray's unix socket paths must stay under 108 bytes; a longer temp root
# falls back to Ray's default location
_MAX_RAY_TEMP = 40


def _median(xs):
    return float(statistics.median(xs))


def _sample(xs) -> dict:
    """Median, highest observed value and sample count of one run's samples."""
    return {"median": _median(xs), "max": float(max(xs)), "n": len(xs)}


@contextmanager
def ray_session(cpus: int):
    """A local Ray cluster sized ``cpus``; on exit every process it started
    has ended."""
    import ray
    from ray.data import DataContext

    from perfbench import hostctx
    from perfbench.workloads import STATE

    kw = dict(address="local", num_cpus=cpus, include_dashboard=False,
              logging_level="ERROR", object_store_memory=OBJECT_STORE_MB << 20)
    tmp = os.path.join(STATE, "ray")
    own_tmp = len(tmp) <= _MAX_RAY_TEMP
    if own_tmp:
        kw["_temp_dir"] = tmp
    ray.init(**kw)
    DataContext.get_current().enable_progress_bars = False
    try:
        yield
    finally:
        pids = hostctx.descendants()
        ray.shutdown()
        hostctx.wait_gone(pids)
        if own_tmp:  # session logs and sockets; nothing reads them later
            shutil.rmtree(tmp, ignore_errors=True)


class Timed:
    """Measured windows: wall seconds, CPU seconds our processes spent, and
    the VM's busy and stolen CPU seconds inside each window."""

    def __init__(self):
        self.total = {"s": 0.0, "cpu": 0.0, "busy": 0.0, "steal": 0.0}

    @contextmanager
    def window(self):
        """Yields a dict filled with this window's figures on exit."""
        from bench import _busy_cpu_s, _steal_cpu_s
        from perfbench import hostctx

        w: dict = {}
        c0, s0, b0 = hostctx.cpu_times(), _steal_cpu_s(), _busy_cpu_s()
        t0 = time.perf_counter()
        try:
            yield w
        finally:
            w["s"] = time.perf_counter() - t0
            w["steal"] = max(0.0, _steal_cpu_s() - s0)
            w["busy"] = max(0.0, _busy_cpu_s() - b0)
            w["cpu"] = hostctx.cpu_delta(c0, hostctx.cpu_times())
            for k in self.total:
                self.total[k] += w[k]


def unstolen_s(w: dict) -> float:
    """Window wall time with the hypervisor's stolen share taken out: the
    share of the CPU time the VM wanted (busy + stolen) that it did not get.
    On a shared host this removes most of the run-to-run swing that
    neighbours cause; the raw wall figures are reported beside it."""
    return w["s"] * (1.0 - w["steal"] / max(w["steal"] + w["busy"], 1e-9))


def run_crawl(w, seed: int, seconds: float, trace: bool, cpus: int, pool: int,
              paths: dict) -> dict:
    import pyarrow.parquet as pq

    from lightcrawler_ray.pipelines.crawl import CrawlJob
    from perfbench import checks, hostctx, replay
    from perfbench.trace import Tracer
    from perfbench.workloads import STATE, crawl_spec, routed_truth

    seeds = pq.read_table(paths["seeds"])
    timed, setup_timer = Timed(), Timed()
    setups, raw_setups, rates, raw_rates, cpus_ms, mems = [], [], [], [], [], []
    recon, failures = [], []
    urls_total = urls_failed = 0
    layers: dict = {}
    checks_s = {"golden_s": 0.0, "checks_s": 0.0}
    with ray_session(cpus):
        j = 0
        while True:
            job_dir = os.path.join(STATE, "jobs", f"{w.name}-{j}")
            shutil.rmtree(job_dir, ignore_errors=True)
            with setup_timer.window() as win:
                job = CrawlJob(crawl_spec(w, pool), seeds, paths["pages"], paths["images"],
                               paths["robots"], job_dir)
            setups.append(unstolen_s(win))
            raw_setups.append(win["s"])
            with timed.window() as win:
                summary = job.run(max_rounds=MAX_ROUNDS)
            mems.append(hostctx.anon_mb())
            urls = summary["fetched"]
            raw_rates.append(urls / win["s"])
            rates.append(urls / unstolen_s(win))
            cpus_ms.append(win["cpu"] / urls * 1e3)
            urls_total += urls
            t2 = time.perf_counter()
            try:
                g = checks.golden(job, paths)
                checks_s["golden_s"] += time.perf_counter() - t2
                checks.check_parity(job, g)
                if w.kind == "graph":
                    checks.check_images(job, g, paths["images"], seed)
                else:
                    checks.check_routed(job, routed_truth(w, seed))
                recon = checks.reconcile(job, checks.make_filter(job))
            except checks.CheckFailed as e:
                failures.append(f"job {j}: {e}")
                urls_failed += urls
            checks_s["checks_s"] += time.perf_counter() - t2
            job.shutdown()
            j += 1
            if trace and not failures:
                tracer = Tracer(f"{w.name}-s{seed}")
                layers = replay.replay(job, tracer,
                                       os.path.join(STATE, "jobs", f"{w.name}-replay"))
                layers.update(replay.crawl_phase_metrics(job, summary))
                layers.update(_save_trace(tracer))
            del job
            shutil.rmtree(job_dir, ignore_errors=True)
            if trace or failures or (j >= MIN_JOBS and timed.total["s"] >= seconds):
                break
    return {
        "e2e": {"throughput": _median(rates), "setup_s": _median(setups), "mem_mb": _median(mems)},
        "raw_throughput": _median(raw_rates),
        "samples": {"urls_per_s_unstolen": _sample(rates), "urls_per_s": _sample(raw_rates),
                    "setup_s_unstolen": _sample(setups), "setup_s": _sample(raw_setups),
                    "cpu_ms_per_url": _sample(cpus_ms), "mem_mb": _sample(mems)},
        "layers": layers, "timed": timed, "attempted": urls_total, "failed": urls_failed,
        "failures": failures, "detail": {"urls_per_job": urls_total // j, "jobs": j,
                                         **checks_s, "reconciliation": recon},
    }


def _save_trace(tracer) -> dict:
    """Write the spans out; returns the trace's own per-layer figures."""
    from perfbench.trace import span_overhead_us
    from perfbench.workloads import STATE

    os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
    tracer.write(os.path.join(STATE, "traces", f"{tracer.run_id}.jsonl"))
    return {"trace.span_overhead_us": span_overhead_us(), "trace.spans": len(tracer.spans),
            "self_s": tracer.self_times()}


def _consume(res):
    return res.to_pandas() if hasattr(res, "to_pandas") else res


def run_ops(seed: int, seconds: float, trace: bool, cpus: int, dirs: tuple[str, str]) -> dict:
    """Ray Data set-up is sampled in two fresh sessions (one when traced);
    the suite passes run in the first."""
    import duckdb

    import __ray_entry__ as entry
    from lightcrawler_ray import relational as rel
    from perfbench import checks, hostctx
    from perfbench.trace import Tracer
    from perfbench.workloads import BASKET_QUERY, OPS_QUERIES
    from tools.sweep_oracle import TABLES

    suite_dir, basket_dir = dirs
    plan = [(q, suite_dir) for q in OPS_QUERIES] + [(BASKET_QUERY, basket_dir)]
    queries, oracles = entry.queries(), entry.oracle_sql()
    timed, setup_timer = Timed(), Timed()
    tracer = Tracer(f"ops_suite-s{seed}")
    setups, raw_setups, passes, unstolen, pass_cpu, mems = [], [], [], [], [], []
    failures = []
    frames: dict = {}
    for session in range(1 if trace else 2):
        with ray_session(cpus):
            with setup_timer.window() as win:
                _consume(rel.distinct_langs(suite_dir))
            setups.append(unstolen_s(win))
            raw_setups.append(win["s"])
            if session:
                continue
            while True:
                times, unst, cpu = {}, {}, 0.0
                for name, d in plan:
                    with timed.window() as win:
                        with tracer.span(f"ops.{name}") if trace else nullcontext():
                            frames[name] = _consume(queries[name](d))
                    times[name], unst[name] = win["s"], unstolen_s(win)
                    cpu += win["cpu"]
                passes.append(times)
                unstolen.append(unst)
                pass_cpu.append(cpu / len(plan) * 1e3)
                if len(passes) >= MIN_PASSES and timed.total["s"] >= seconds:
                    break
            mems.append(hostctx.anon_mb())
    for d in (suite_dir, basket_dir):
        con = duckdb.connect()
        for t in TABLES:
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{d}/{t}.parquet'")
        for name, qd in plan:
            if qd == d:
                bad = checks.oracle_compare(frames[name], con.sql(oracles[name]).df())
                if bad:
                    failures.append(f"{name}: {bad}")
        con.close()
    totals = [sum(p.values()) for p in passes]
    unstolen_totals = [sum(p.values()) for p in unstolen]
    per_query = {q: _median([p[q] for p in passes]) for q, _ in plan}
    per_query_unstolen = {q: _median([p[q] for p in unstolen]) for q, _ in plan}
    layers = {}
    if trace:
        layers = {f"ops.{q}_s": per_query[q] for q, _ in plan}
        layers.update(_save_trace(tracer))
    return {
        "e2e": {"throughput": len(plan) / sum(per_query_unstolen.values()),
                "setup_s": _median(setups), "mem_mb": _median(mems)},
        "raw_throughput": len(plan) / sum(per_query.values()),
        "samples": {"ops_s_unstolen": _sample(unstolen_totals), "ops_s": _sample(totals),
                    "setup_s_unstolen": _sample(setups), "setup_s": _sample(raw_setups),
                    "cpu_ms_per_query": _sample(pass_cpu), "mem_mb": _sample(mems)},
        "layers": layers, "timed": timed, "attempted": len(plan) * len(passes),
        "failed": len(failures), "failures": failures, "detail": {"query_s": per_query},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (os.path.isfile(os.path.join(ROOT, "lightcrawler_ray", "__init__.py"))
            and os.path.isfile(os.path.join(ROOT, "bench.py"))):
        print(f"perfbench: engine sources not found under {ROOT} "
              "(need lightcrawler_ray/ and bench.py)", file=sys.stderr)
        return 2
    # Ray workers import the package from PYTHONPATH, not from our cwd
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH", "")) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    import logging

    logging.getLogger("ray").setLevel(logging.ERROR)

    from perfbench import hostctx
    from perfbench.metrics import catalog
    from perfbench.sizing import ray_sizing
    from perfbench.workloads import STATE, WORKLOADS, crawl_inputs, ops_inputs

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    end_to_end, per_layer = catalog(ROOT)
    nproc = len(os.sched_getaffinity(0))
    cpus, pool = ray_sizing(nproc)
    t0 = time.perf_counter()
    capacity = hostctx.capacity_probe()
    t1 = time.perf_counter()
    inputs = ops_inputs(args.seed) if w.kind == "ops" else crawl_inputs(w, args.seed)
    t2 = time.perf_counter()
    if w.kind == "ops":
        res = run_ops(args.seed, args.seconds, bool(args.trace), cpus, inputs)
    else:
        res = run_crawl(w, args.seed, args.seconds, bool(args.trace), cpus, pool, inputs)
    shutil.rmtree(os.path.join(STATE, "jobs"), ignore_errors=True)
    wall = {"probe_s": t1 - t0, "inputs_s": t2 - t1, "run_s": time.perf_counter() - t2}

    t = res["timed"].total
    context = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "host": {"nproc": nproc, "ray_cpus": cpus, "fetch_pool": pool,
                 "steal_frac": t["steal"] / max(t["s"] * (os.cpu_count() or 1), 1e-9),
                 "steal_share": t["steal"] / max(t["steal"] + t["busy"], 1e-9),
                 "timed_s": t["s"], "timed_cpu_s": t["cpu"], **capacity},
        "samples": res["samples"], "detail": res["detail"], "wall": wall,
        "span_self_s": res["layers"].get("self_s", {}),
        "failures": res["failures"],
    }
    if args.trace:
        layers = {**res["layers"], "trace.throughput": res["e2e"]["throughput"],
                  "trace.raw_throughput": res["raw_throughput"],
                  "trace.setup_s": res["e2e"]["setup_s"]}
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in per_layer}
    else:
        metrics = {m["name"]: {"value": res["e2e"][m["name"]], "unit": m["unit"]}
                   for m in end_to_end}
    out = {"correct": not res["failures"], "attempted": int(res["attempted"]),
           "failed": int(res["failed"]), "metrics": metrics}
    os.makedirs(STATE, exist_ok=True)
    with open(os.path.join(STATE, "results.jsonl"), "a", encoding="utf-8") as f:
        f.write(json.dumps({"context": context, "result": out}) + "\n")
    print(json.dumps({"perfbench_context": context}))
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 — report and fail without a result line
        traceback.print_exc()
        sys.exit(1)
