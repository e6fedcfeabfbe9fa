"""Per-epoch md5 digests of one in-process crawl job's outputs.

Runs one ``CrawlJob`` of a perfbench crawl workload (fixture and spec from
``perfbench/workloads.py``, read only) at a chosen ``local_round_threshold``
in one local Ray session sized like perfbench's, and prints one JSON line per
epoch: the md5 of each output directory (frontier, schedule, links, images,
docs, attachments, metrics: its file names and bytes, files in name order),
of the ``_EPOCH_DONE`` marker and of the ``seen.npz`` snapshot; ``null``
where the epoch has no such output.  Two checkouts whose crawls are
byte-identical print identical lines, so diffing the output of the same
command run in each checks an "outputs unchanged" claim.

Usage (from the repository root; builds the workload's fixture under
``perfbench/.state`` on first use):

  python tools/epoch_digest.py --workload crawl_routed --seed 101 --threshold 40
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys
from pathlib import Path

import pyarrow.parquet as pq

ROOT = str(Path(__file__).resolve().parent.parent)
sys.path.insert(0, ROOT)

OUTPUTS = ("frontier", "schedule", "links", "images", "docs", "attachments", "metrics",
           "_EPOCH_DONE", "seen.npz")


def digest(path: str) -> str | None:
    """md5 of a file's bytes, or of a directory's file names and bytes in
    name order; None if ``path`` does not exist."""
    if not os.path.exists(path):
        return None
    h = hashlib.md5()
    files = [path] if os.path.isfile(path) else [
        os.path.join(path, f) for f in sorted(os.listdir(path))]
    for f in files:
        h.update(os.path.basename(f).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def epoch_digests(job_dir: str) -> list[dict]:
    """One record per ``epoch=NNNN`` dir of ``job_dir``, in epoch order."""
    return [{"epoch": int(d.split("=")[1]),
             **{name: digest(os.path.join(job_dir, d, name)) for name in OUTPUTS}}
            for d in sorted(os.listdir(job_dir)) if d.startswith("epoch=")]


def run_job(spec, paths: dict, job_dir: str, max_rounds: int = 12) -> list[dict]:
    """Crawl ``spec`` over the fixture ``paths`` to the end on the current
    Ray session in ``job_dir`` (a job writes its seed scope into the spec,
    so it gets a copy); returns ``epoch_digests`` of the finished job."""
    from lightcrawler_ray.pipelines.crawl import CrawlJob

    job = CrawlJob(copy.deepcopy(spec), pq.read_table(paths["seeds"]), paths["pages"],
                   paths["images"], paths["robots"], job_dir)
    try:
        job.run(max_rounds=max_rounds)
    finally:
        job.shutdown()
    return epoch_digests(job_dir)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", default="crawl_linkstorm",
                    help="a crawl workload of perfbench/workloads.py")
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--threshold", type=int, default=4096, help="local_round_threshold")
    args = ap.parse_args(argv)
    from tools.phase_seconds import crawl_session

    with crawl_session(ap, args, "epoch_digest-") as (w, spec, paths, root):
        for rec in run_job(spec, paths, os.path.join(root, "job")):
            print(json.dumps({"workload": w.name, "seed": args.seed,
                              "threshold": args.threshold, **rec}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
