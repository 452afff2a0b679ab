"""Attribution self-test: a known extra cost in one layer is charged to
that layer by the traced run, and the simulator's counts do not move.

Run from the repository root::

    python3 -m pytest -q perfbench/test_attribution.py
"""

from __future__ import annotations

import cProfile
import inspect
import time

from perfbench.run import import_simulator

import_simulator()

from repro.hib.hib import HIB  # noqa: E402

from perfbench.layers import LayerProfile  # noqa: E402
from perfbench.run import DETERMINISTIC, Run  # noqa: E402
from perfbench.workloads import HotspotRmw  # noqa: E402

EXTRA_S = 1e-3
HOSTS, OPS = 4, 100

# The wrapper is compiled under hib.py's file name, so the profiler
# sees its spin loop as code of the hib layer, as it would a real
# slowdown of HIB.issue_atomic.
_WRAPPER = '''
def issue_atomic(self, *args, **kwargs):
    calls.append(None)
    end = perf_counter() + extra_s
    while perf_counter() < end:
        pass
    return (yield from original(self, *args, **kwargs))
'''


def _slowed_issue_atomic(calls):
    """HIB.issue_atomic plus EXTRA_S of spinning; appends to ``calls``
    once per call."""
    namespace = {"perf_counter": time.perf_counter, "extra_s": EXTRA_S,
                 "original": HIB.issue_atomic, "calls": calls}
    exec(compile(_WRAPPER, inspect.getsourcefile(HIB), "exec"), namespace)
    return namespace["issue_atomic"]


def _traced_repetition():
    run = Run(HotspotRmw(hosts=HOSTS, ops_per_host=OPS), seed=1, seconds=0)
    setup_prof, run_prof = cProfile.Profile(), cProfile.Profile()
    outcome = run.repetition("traced", (setup_prof, run_prof))
    assert run.failed == 0, run.problems
    profile = LayerProfile(run_prof)
    [span_s] = run.spans.seconds("run")
    assert profile.covers(span_s), (profile.self_s, span_s)
    return profile, outcome.counts


def test_extra_hib_cost_is_charged_to_hib(monkeypatch):
    base, base_counts = _traced_repetition()
    calls = []
    monkeypatch.setattr(HIB, "issue_atomic", _slowed_issue_atomic(calls))
    slow, slow_counts = _traced_repetition()

    # Every host but the counter's home issues its atomics remotely.
    assert len(calls) == (HOSTS - 1) * OPS
    added = len(calls) * EXTRA_S
    grew = {layer: slow.self_s[layer] - base.self_s[layer]
            for layer in base.self_s}
    assert 0.9 * added <= grew["hib"] <= 1.5 * added, grew
    others = sum(abs(d) for layer, d in grew.items() if layer != "hib")
    assert others < 0.5 * added, grew
    for name in DETERMINISTIC:
        assert slow_counts[name] == base_counts[name], name


def test_coverage_check_sees_unprofiled_time():
    run = Run(HotspotRmw(hosts=HOSTS, ops_per_host=OPS), seed=1, seconds=0)
    run_prof = cProfile.Profile()
    run.repetition("traced", (cProfile.Profile(), run_prof))
    profile = LayerProfile(run_prof)
    [span_s] = run.spans.seconds("run")
    assert profile.covers(span_s)
    # A phase that also spent as long again outside the profiler, as
    # on a thread it does not see, is not covered; nor is one shorter
    # than the time charged to it.
    assert not profile.covers(2 * span_s)
    assert not profile.covers(0.5 * span_s)
