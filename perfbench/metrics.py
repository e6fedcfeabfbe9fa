"""The metric catalog: names, units, direction and bounds come from
BENCHMARK.json at the repository root, the one place they are written.

End-to-end (``--trace 0``):

- ``throughput``: URLs fetched per second over ``CrawlJob.run`` (crawl
  workloads), queries per second of the operator suite rated by each
  query's median time over the run's passes (ops_suite), with the
  hypervisor's stolen share of each window taken out (``run.unstolen_s``);
  the raw wall rate is printed beside it.
- ``setup_s``: ``CrawlJob`` construction (crawl workloads), the first Ray
  Data execution in a fresh session (ops_suite); median of the run's
  set-ups, stolen share taken out as for throughput.
- ``mem_mb``: RssAnon of the benchmark process plus every Ray worker at the
  end of a timed run.

Per-layer (``--trace 1``), by name prefix, and what each should move:

- ``crawl.*``: the traced job's own phase seconds and counts; throughput on
  every crawl workload, most on crawl_routed.
- ``frontier.*``, ``urltools.*``, ``seenset.*``, ``cuckoo.*``: throughput on
  crawl_linkstorm, no change on crawl_heavy; ``seenset.snapshot_*`` also
  mem_mb there.
- ``politeness.*``: throughput on crawl_linkstorm.
- ``fetch.*``, ``htmltools.*``, ``hashing.*``, ``imagecodec.*``: throughput
  on crawl_heavy, little on crawl_linkstorm.
- ``fetchpool.*``: replayed with one worker, per-URL pool time minus the
  direct call's, and the worker's spawn; throughput and setup_s on every
  crawl workload.
- ``content.*``, ``simindex.*``, ``storage.*``: throughput on crawl_routed
  and crawl_heavy.
- ``share.*``: each layer's share of the replayed layer time (sums to 1 on
  crawl workloads).
- ``ops.*``: throughput on ops_suite, none on the crawl workloads.
- ``trace.*``: the traced run's own end-to-end figures, beside the
  untraced ones, and the cost of one span.

A traced run reports every per-layer metric; a layer the workload does not
run reads 0.
"""

from __future__ import annotations

import json
import os


def catalog(root: str) -> tuple[list[dict], list[dict]]:
    """``(end_to_end, per_layer)`` entries of ``root``/BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]
