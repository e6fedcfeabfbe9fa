"""Per-phase seconds of in-process crawl jobs, on either round path.

Runs N ``CrawlJob``s of a perfbench crawl workload (fixture and spec from
``perfbench/workloads.py``, read only) at a chosen
``local_round_threshold`` in one local Ray session sized like perfbench's,
and prints one JSON line per job: URLs fetched, ``run()`` wall seconds and
the job's phase decomposition (``CrawlJob.benchmarks()``:
launch_filter+gate, gate_counts, rank+sched_launch, tail_collapse,
fetch+split, sinks, final_drain).  Threshold 0 sends every round through
the block graph, which no perfbench workload reaches at the default
threshold; compare two checkouts by alternating runs of the same command.

Usage (from the repository root; builds the workload's fixture under
``perfbench/.state`` on first use):

  python tools/phase_seconds.py --workload crawl_linkstorm --threshold 0 --jobs 3
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import pyarrow.parquet as pq

ROOT = str(Path(__file__).resolve().parent.parent)
sys.path.insert(0, ROOT)


def run_jobs(spec, paths: dict, n_jobs: int, root: str, max_rounds: int = 12):
    """Run ``n_jobs`` crawls of ``spec`` over the fixture ``paths`` on the
    current Ray session, each in its own job dir under ``root`` (removed
    after the job); yields one record per job."""
    from lightcrawler_ray.pipelines.crawl import CrawlJob

    seeds = pq.read_table(paths["seeds"])
    for j in range(n_jobs):
        job_dir = os.path.join(root, f"job-{j}")
        # a job writes its seed scope into the spec, so each gets a copy
        job = CrawlJob(copy.deepcopy(spec), seeds, paths["pages"], paths["images"],
                       paths["robots"], job_dir)
        try:
            t0 = time.perf_counter()
            summary = job.run(max_rounds=max_rounds)
            run_s = time.perf_counter() - t0
        finally:
            job.shutdown()
            shutil.rmtree(job_dir, ignore_errors=True)
        yield {"job": j, "fetched": summary["fetched"], "run_s": round(run_s, 4),
               "phases": {k: round(v, 4) for k, v in sorted(job.benchmarks().items())}}


@contextmanager
def crawl_session(ap: argparse.ArgumentParser, args, prefix: str):
    """Yield ``(workload, spec, paths, root)`` for ``args.workload`` at
    ``args.seed`` with ``local_round_threshold = args.threshold``, inside a
    local Ray session sized like perfbench's; ``root`` is a scratch dir
    removed on exit with the session."""
    from perfbench.sizing import ray_sizing
    from perfbench.workloads import WORKLOADS, crawl_inputs, crawl_spec

    w = WORKLOADS[args.workload]
    if w.kind == "ops":
        ap.error(f"{args.workload} runs no crawl")
    cpus, pool = ray_sizing(len(os.sched_getaffinity(0)))
    spec = crawl_spec(w, pool)
    spec.local_round_threshold = args.threshold
    paths = crawl_inputs(w, args.seed)
    # Ray workers import the package from PYTHONPATH, not from our cwd
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH", "")) if p)
    import ray

    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", object_store_memory=400 << 20)
    root = tempfile.mkdtemp(prefix=prefix)
    try:
        yield w, spec, paths, root
    finally:
        shutil.rmtree(root, ignore_errors=True)
        ray.shutdown()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", default="crawl_linkstorm",
                    help="a crawl workload of perfbench/workloads.py")
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--threshold", type=int, default=0, help="local_round_threshold")
    ap.add_argument("--jobs", type=int, default=3)
    args = ap.parse_args(argv)
    with crawl_session(ap, args, "phase_seconds-") as (w, spec, paths, root):
        for rec in run_jobs(spec, paths, args.jobs, root):
            print(json.dumps({"workload": w.name, "seed": args.seed,
                              "threshold": args.threshold, **rec}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
