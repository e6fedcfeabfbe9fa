"""The Ray sizing rule leaves a logical CPU free for round tasks.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import pytest

from perfbench.sizing import ray_sizing


@pytest.mark.parametrize("nproc,expect", [(1, (2, 1)), (2, (2, 1)), (4, (4, 3))])
def test_sizing_leaves_a_free_slot(nproc, expect):
    cpus, pool = ray_sizing(nproc)
    assert (cpus, pool) == expect
    assert pool >= 1
    assert cpus > pool


def test_sizing_rejects_zero_cpus():
    with pytest.raises(ValueError):
        ray_sizing(0)
