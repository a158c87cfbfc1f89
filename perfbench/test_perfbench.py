"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from scdh import cli, data, losses, meanteacher, model, retrieval  # noqa: E402
from scdh import bounds  # noqa: E402


def test_self_time_on_hand_built_span_tree():
    #   0 [0, 10]            root
    #   1 [1, 3]   child of 0
    #   2 [2, 5]   child of 0, overlapping 1
    #   3 [1.5, 2.5] child of 1
    #   4 [9, 12]  child of 0, running past its parent's end
    #   5 [20, 21] root
    start = [0.0, 1.0, 2.0, 1.5, 9.0, 20.0]
    end = [10.0, 3.0, 5.0, 2.5, 12.0, 21.0]
    parent = [-1, 0, 0, 1, 0, -1]
    got = tracing.self_times(start, end, parent)
    # span 0: 10 minus [1, 5] and [9, 10]
    assert got.tolist() == [5.0, 1.0, 3.0, 1.0, 3.0, 1.0]
    assert tracing.covered([(1, 3), (2, 5), (4, 4.5)], 0, 10) == 4.0
    assert tracing.covered([], 0, 10) == 0.0
    # time in [0, 25] that no root span covers
    roots = [(0.0, 10.0), (20.0, 21.0)]
    assert 25.0 - tracing.covered(roots, 0.0, 25.0) == 14.0


def test_tracer_spans_nest_and_self_times_add_up():
    tracer = tracing.Tracer()
    tracer.begin_run("r")

    def inner(x):
        return sum(range(x))

    inner_t = tracer.wrap(inner, "layer.inner")

    def outer():
        return inner_t(1000) + inner_t(2000)

    outer_t = tracer.wrap(outer, "layer.outer")
    assert outer_t() == inner(1000) + inner(2000)
    name_id, parent, start, end = tracer.arrays()
    assert [tracer.names[i] for i in name_id] == ["layer.outer", "layer.inner", "layer.inner"]
    assert parent.tolist() == [-1, 0, 0]
    selfs = tracing.self_times(start, end, parent)
    assert selfs[0] == pytest.approx((end - start)[0] - (end - start)[1:].sum())
    assert (selfs >= 0).all()


def test_install_wraps_every_call_site_and_uninstall_restores():
    modules = {"data": data, "losses": losses, "model": model,
               "meanteacher": meanteacher, "retrieval": retrieval,
               "bounds": bounds, "cli": cli}
    original_search = retrieval.search
    original_forward = model.forward_batch
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        # imported by name into meanteacher: must be the same wrapper
        assert meanteacher.forward_batch is model.forward_batch
        assert model.forward_batch is not original_forward
        index = retrieval.CodeIndex(np.array([[1], [2], [3]], dtype=np.uint64),
                                    np.array([10, 11, 12]), 4)
        retrieval.search(retrieval.HashCode(np.array([1], dtype=np.uint64), 4), index, 2)
    finally:
        tracer.uninstall()
    assert retrieval.search is original_search
    assert model.forward_batch is original_forward
    name_id, parent, _, _ = tracer.arrays()
    names = [tracer.names[i] for i in name_id]
    assert names == ["retrieval.search", "retrieval.distances_to_index"]
    assert parent.tolist() == [-1, 0]
    m = tracing.layer_metrics(tracer, [], 0)
    assert m["retrieval.search_calls"] == 1 and m["retrieval.rankings"] == 1
    assert m["retrieval.eval_rankings"] == 0


def test_search_oracle_orders_ties_by_id():
    # 4-bit codes; the query is all zeros
    ids = np.array([7, 3, 5, 1, 9])
    words = np.array([[0b0001], [0b0010], [0b0000], [0b0011], [0b1000]], dtype=np.uint64)
    query = np.zeros((1, 1), dtype=np.uint64)
    db_bits = workloads.unpack(words, 4)
    assert db_bits[3].tolist() == [True, True, False, False]     # LSB first
    got = workloads.oracle_topk(workloads.unpack(query, 4)[0], db_bits, ids, 4)
    assert got == [(5, 0), (3, 1), (7, 1), (9, 1)]
    index = retrieval.CodeIndex(words, ids, 4)
    assert retrieval.search(retrieval.HashCode(query[0], 4), index, 4) == got


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1000, 0, -1))
    assert stats.percentile(values, 99) == (990, 1000)     # ranks 991..1000 lie beyond
    assert stats.percentile(values, 50) == (500, 1000)
    with pytest.raises(ValueError):
        stats.percentile(range(999), 99)                  # only 9 beyond
    assert stats.percentile(range(1, 21), 50) == (10, 20)
    with pytest.raises(ValueError):
        stats.percentile(range(1, 20), 50)


def test_highest_percentile_with_ten_beyond():
    assert stats.highest_percentile(range(1, 26)) == (60.0, 15, 25)
    assert stats.highest_percentile(range(1, 1001)) == (99.0, 990, 1000)
    with pytest.raises(ValueError):
        stats.highest_percentile(range(10))


def test_wall_ref_is_the_median_ratio_per_iteration():
    # a slow phase doubles both wall and probe time in iteration 2
    assert stats.wall_ref([3.0, 6.0, 3.3], [0.01, 0.02, 0.01]) == pytest.approx(300.0)
    with pytest.raises(ValueError):
        stats.wall_ref([3.0], [])


def test_reference_probe_times_both_kernels():
    probe = reference.Probe()
    assert probe.python_kernel() > 0.0 and probe.stream_kernel() > 0.0
    assert probe() > 0.0
