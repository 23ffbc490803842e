"""One round of the benchmark's exact-certify workload through its own
output check, so that a wrong exact-certify answer fails the tests and not
only a benchmark run.

``perfbench/workloads.py`` is imported as it is, with ``perfbench/`` put
on ``sys.path`` for its ``tracer`` import, the way its worker runs it.
"""
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_exact_certify_round_passes_its_check():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    work = workloads.ExactCertify(seed=7)
    items = work.round(0, 0)
    assert len(items) == len(workloads.GAUGE_PAIRS)
    assert [work.check(item, work.run(item)) for item in items] == [None] * len(items)
