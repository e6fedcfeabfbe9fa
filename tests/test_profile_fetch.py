"""Smoke test of ``tools/profile_fetch.py``: one pass over a tiny fixture
reports every stage, and the stage timers leave ``stages/fetch.py`` as they
found it."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pyarrow.parquet as pq
import pytest

from lightcrawler_ray.functions import htmltools
from lightcrawler_ray.sources import synth
from lightcrawler_ray.stages import fetch as fetch_mod
from lightcrawler_ray.stages.frontier import CrawlSpec

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "profile_fetch.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("profile_fetch", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_profile_fetch_reports_every_stage():
    tool = _load_tool()
    paths = synth.ensure_fixtures(synth.GraphParams(n_pages=40, n_hosts=4, n_images=12,
                                                    out_degree=4))
    res = tool.profile(paths, CrawlSpec(fetch_batch_size=16), repeat=1)
    n = pq.read_metadata(paths["pages"]).num_rows + pq.read_metadata(paths["images"]).num_rows
    assert res["urls"] == n
    assert res["batches"] == math.ceil(n / 16)
    for s in tool.STAGES:
        assert math.isfinite(res[s]) and res[s] >= 0, s
    for s in ("lookup+decode", "links", "lines+main", "hash+text", "image", "build"):
        assert res[s] > 0, s
    staged = sum(res[s] for s in tool.STAGES if s not in ("other", "operator", "wire"))
    assert staged + res["other"] == pytest.approx(res["operator"])
    # the real modules are back, and the timers refuse to nest
    assert fetch_mod.htmltools is htmltools
    assert fetch_mod.OutBuilder.build.__name__ == "build"
    acc = dict.fromkeys(tool.STAGES, 0.0)
    with tool._stage_timers(acc):
        with pytest.raises(RuntimeError):
            with tool._stage_timers(acc):
                pass
    assert fetch_mod.htmltools is htmltools
