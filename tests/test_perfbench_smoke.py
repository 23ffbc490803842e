"""One round of the benchmark's exact-certify and sampled-search workloads
through their own output checks, so that a wrong answer fails the tests
and not only a benchmark run.

``perfbench/workloads.py`` is imported as it is, with ``perfbench/`` put
on ``sys.path`` for its ``tracer`` import, the way its worker runs it.
"""
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _workloads():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return workloads


def test_exact_certify_round_passes_its_check():
    workloads = _workloads()
    work = workloads.ExactCertify(seed=7)
    items = work.round(0, 0)
    assert len(items) == len(workloads.GAUGE_PAIRS)
    assert [work.check(item, work.run(item)) for item in items] == [None] * len(items)


def test_sampled_search_round_passes_its_check():
    workloads = _workloads()
    work = workloads.SampledSearch(seed=7)
    items = work.round(0, 0)
    assert len(items) == len(workloads.SEARCH_TABLE)
    assert [work.check(item, work.run(item)) for item in items] == [None] * len(items)
