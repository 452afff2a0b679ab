"""Per-layer host-time attribution from the stdlib profiler.

The traced run profiles a phase with :mod:`cProfile` and charges each
profiled function's self time and call count to the ``repro.<layer>``
package its code lives in.  A builtin function (list.append, heappush,
...) has no package of its own: its time and calls go to the layer of
each caller, split as the profiler recorded them per caller.  Code
outside the listed layers -- ``repro.workloads``, ``repro.obs``, the
standard library, the benchmark itself -- is ``other``.

:meth:`LayerProfile.covers` checks the attribution against a clock of
its own: the layer self times plus ``other`` must account for the
phase's span, as the benchmark timed it outside the profiler.
"""

from __future__ import annotations

import cProfile
from pathlib import Path
from typing import Dict

import repro

#: The simulator packages timed as layers, in table order.
LAYERS = ("sim", "network", "hib", "machine", "coherence", "faults", "os",
          "api", "exp")

_PACKAGE_ROOT = str(Path(repro.__file__).resolve().parent) + "/"
_BUILTIN = "~"
#: The share of a profiled phase's span its layer self times must at
#: least add up to.  The rest is the span's own bookkeeping and the
#: profiler's enable and disable; on a phase of 3 ms it is under 1%.
MIN_COVERAGE = 0.95


def layer_of(filename: str) -> str:
    if filename.startswith(_PACKAGE_ROOT):
        package = filename[len(_PACKAGE_ROOT):].split("/", 1)[0]
        if package in LAYERS:
            return package
    return "other"


class LayerProfile:
    """Self seconds and call counts per layer for one profiled phase."""

    def __init__(self, profile: cProfile.Profile):
        profile.create_stats()
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS + ("other",), 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS + ("other",), 0)
        # stats: (file, line, name) -> (primitive calls, calls, self s,
        # cumulative s, callers); callers: key -> (calls, primitive
        # calls, self s, cumulative s) of this function per caller.
        for (filename, _, _), (_, calls, self_s, _, callers) in profile.stats.items():
            if filename != _BUILTIN:
                self._charge(layer_of(filename), self_s, calls)
                continue
            for (caller_file, _, _), (c_calls, _, c_self_s, _) in callers.items():
                caller = "other" if caller_file == _BUILTIN else layer_of(caller_file)
                self._charge(caller, c_self_s, c_calls)
                self_s -= c_self_s
                calls -= c_calls
            # Time of a builtin the profiler saw no caller for
            # (the profiler's own enable/disable).
            self._charge("other", self_s, calls)

    def _charge(self, layer: str, seconds: float, calls: int) -> None:
        self.self_s[layer] += seconds
        self.calls[layer] += calls

    def covers(self, span_s: float) -> bool:
        """Whether the layer self times account for a phase whose span
        lasted ``span_s``: none of its time was lost or charged twice.

        The profiler reads the spans' clock, so the sum cannot exceed
        the span unless time was counted twice.
        """
        attributed = sum(self.self_s.values())
        return MIN_COVERAGE * span_s <= attributed <= span_s + 1e-6
