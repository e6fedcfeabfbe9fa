"""Span self time is duration minus direct children."""

import time

from perfbench.trace import Tracer


def test_self_time_excludes_children():
    t = Tracer("t")
    with t.span("outer"):
        time.sleep(0.02)
        with t.span("inner"):
            time.sleep(0.03)
    tot, own = t.totals(), t.self_times()
    assert abs(own["outer"] - (tot["outer"] - tot["inner"])) < 1e-9
    assert own["inner"] == tot["inner"]
    assert [s["parent"] for s in t.spans] == [None, 0]
