"""Scaling-headline selection (bench.summarize_pairs) — the measurement
discipline is load-bearing (ADVICE round 2: never headline best-of-N), so
the basis choice is pinned as a pure-function unit test."""

import bench


def _pair(eff, quiet, degraded):
    return {"scaling_efficiency": eff, "quiet": quiet, "host_degraded": degraded}


def test_graded_pairs_win():
    out = bench.summarize_pairs([
        _pair(0.70, True, True),    # quiet but below floor — deflated
        _pair(0.84, True, False),
        _pair(0.82, True, False),
        _pair(0.95, False, False),  # steal-polluted high outlier
    ])
    assert out["scaling_efficiency"] == 0.83  # median of the two graded
    assert "at-grade" in out["headline_basis"]
    # the inflated pair is visible but never the headline
    assert out["best_pair"]["scaling_efficiency"] == 0.95


def test_all_degraded_falls_back_with_label():
    out = bench.summarize_pairs([
        _pair(0.66, True, True),
        _pair(0.74, True, True),
        _pair(0.93, False, True),
    ])
    assert out["scaling_efficiency"] == 0.70
    assert "host-degraded" in out["headline_basis"]


def test_no_quiet_pair_label():
    out = bench.summarize_pairs([_pair(0.55, False, True), _pair(1.03, False, True)])
    assert "NO runtime-quiet" in out["headline_basis"]
    assert out["scaling_efficiency"] == 0.79


def test_host_capacity_probe_shape():
    # tiny widths/duration — shape + positivity, not absolute numbers
    cap = bench.host_capacity(widths=(1, 2), dur=0.05)
    assert cap["cpu_1"] > 0 and cap["mem_1"] > 0
    # aggregate throughput at width 2 must at least match width 1 (two
    # procs can't do less than one on a 32-core host)
    assert cap["cpu_2"] >= cap["cpu_1"] * 0.8
    assert cap["mem_2"] >= cap["mem_1"] * 0.8
    assert 0 < cap["cpu_eff_1_2"]
    assert 0 < cap["mem_eff_1_2"]


def test_depth4_floors_calibrated_and_fail_closed():
    # calibrated floors (shipped pool-75 config, round-5 engine) certify
    # the banked calm legs and refuse deflated ones
    assert not bench._below_floor(4, 8, 1806.0)
    assert not bench._below_floor(4, 32, 5255.0)
    assert bench._below_floor(4, 8, 1500.0)
    assert bench._below_floor(4, 32, 5116.0)  # the probe-degraded r5 leg
    # unknown width still fails closed
    assert bench._below_floor(4, 16, 99999.0)
    # depth-3 floors match the r5 calm minima too
    assert not bench._below_floor(3, 8, 1934.0)
    assert not bench._below_floor(3, 32, 5802.0)
    assert bench._below_floor(3, 32, 5600.0)


def test_mem_probe_gate_constant_between_observed_bands():
    # the engine-independent window gate sits between the observed calm
    # (43-48 GB/s) and degraded (32-36) 32-wide copy-bandwidth bands
    assert 36000.0 < bench.MEM32_CALM_FLOOR_MBS < 43000.0


def test_summarize_reports_floors_for_run_depth():
    # a depth-4 run must self-describe with the depth-4 floors (ADVICE r4:
    # the old unconditional depth-3 dict mislabeled default-protocol output)
    d4 = [dict(_pair(0.84, True, False), depth=4)]
    out = bench.summarize_pairs(d4)
    assert out["depth"] == 4
    assert out["host_floor_urls_per_sec"] == bench.HOST_FLOOR_URLS_PER_SEC_D4
    assert out["host_floor_urls_per_sec_by_depth"]["3"] == bench.HOST_FLOOR_URLS_PER_SEC
    d3 = [dict(_pair(0.84, True, False), depth=3)]
    assert bench.summarize_pairs(d3)["host_floor_urls_per_sec"] == bench.HOST_FLOOR_URLS_PER_SEC
