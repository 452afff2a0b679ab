"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fabric_stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the per-layer metrics: an untraced pass for the
counters and the tracing-overhead base, then a pass under the profiler.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a table for people.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fabric_stream", "hotspot_rmw", "paper_sweep")
#: The seed used while the benchmark was written, and a held-out seed
#: for checking a claim on inputs it was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 90210
#: After each timed repetition, set-up alone is repeated until the
#: set-ups since it took SETUP_SHARE of that repetition's time (at least
#: once), so set-up is sampled by time, not by count, and as evenly
#: over the run as the timed phase is.
SETUP_SHARE = 0.03
#: Counts that must repeat exactly across the repetitions of a run.
DETERMINISTIC = ("sim.events", "network.packet_hops", "hib.ops_issued")


class SetupError(Exception):
    """The checkout lacks what the benchmark needs to run."""


def import_simulator(root: Path = ROOT) -> None:
    """Put ``root/src`` first on ``sys.path`` and check that ``repro``
    imports from it."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no simulator sources at {src}/repro")
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SetupError(f"repro imported from {repro.__file__}, not {src}")


def load_spec(root: Path = ROOT) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"no {path}")
    return json.loads(path.read_text())


def make_workload(name: str, root: Path = ROOT):
    from perfbench.workloads import FabricStream, HotspotRmw, PaperSweep

    if name == "fabric_stream":
        return FabricStream()
    if name == "hotspot_rmw":
        return HotspotRmw()
    results = root / "results"
    if not results.is_dir():
        raise SetupError(f"no committed results at {results}")
    return PaperSweep(results)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 when there are none)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> float:
    """The highest of the usual percentiles with at least ten of ``n``
    samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


class Run:
    """The repetitions of one workload in one process."""

    def __init__(self, workload, seed: int, seconds: float):
        from perfbench.calibrate import HostSpeed
        from perfbench.spans import Spans

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.spans = Spans()
        #: Calibration samples, taken between timed repetitions.
        self.speed = HostSpeed(self.spans)
        #: The process's memory high-water mark after the first
        #: repetition, before the calibration loop first runs.
        self.peak_rss_mb: Optional[float] = None
        #: The first repetition's outcome, which later ones must repeat.
        #: Later outcomes are checked and dropped, so the memory the run
        #: holds does not grow with the number of repetitions.
        self.first = None
        self.reps = 0
        self.failed = 0
        self.attempted = 0
        self.problems: List[str] = []

    def repetition(self, mode: str,
                   profiles: Optional[Tuple[cProfile.Profile, cProfile.Profile]] = None):
        """Set up, run and verify once; ``profiles`` (set-up, run) are
        enabled around the two phases when given."""
        setup_prof, run_prof = profiles or (None, None)
        # The calibration loop runs only between the steps of timed
        # repetitions after the first, which sets peak_rss_mb, and never
        # under the profiler.
        sampling = mode == "timed" and self.peak_rss_mb is not None
        between = self.speed.sample if sampling else (lambda: None)
        with self.spans.span("rep", rep=self.reps, mode=mode):
            with self.spans.span("setup"), setup_prof or nullcontext():
                state = self.workload.setup(self.seed, self.spans)
            with self.spans.span("run"), run_prof or nullcontext():
                self.workload.run(state, self.spans, between)
            with self.spans.span("verify"):
                outcome = self.workload.verify(state)
        del state
        gc.collect()
        self._check(outcome)
        self.reps += 1
        return outcome

    def _check(self, outcome) -> None:
        """Count wrong outputs, and any count or simulated time that
        differs from the first repetition, as failures."""
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        if self.first is None:
            self.first = outcome
            return
        first = self.first
        same = {name: outcome.counts[name] == first.counts[name]
                for name in DETERMINISTIC}
        same["simulated times"] = (outcome.op_ns == first.op_ns
                                   and outcome.makespan_ns == first.makespan_ns)
        for name, equal in same.items():
            if not equal:
                self.failed += 1
                self.problems.append(f"{name} differ between repetitions")

    def measure(self, seconds: float, mode: str, profiled: bool = False):
        """Repeat until ``seconds`` have passed (at least once).
        Returns the per-repetition profiles when ``profiled``."""
        deadline = time.perf_counter() + seconds
        profiles = []
        while True:
            pair = (cProfile.Profile(), cProfile.Profile()) if profiled else None
            self.repetition(mode, pair)
            if self.peak_rss_mb is None:
                self.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            if pair:
                profiles.append(pair)
            if mode == "timed":
                self.speed.sample()
                self.extra_setups(SETUP_SHARE * self.spans.seconds("rep")[-1])
            if time.perf_counter() >= deadline:
                if mode == "timed":
                    self.speed.sample(force=True)
                return profiles

    def extra_setups(self, seconds: float) -> None:
        """Set up without running, at least once, until ``seconds``
        of set-up have passed."""
        deadline = time.perf_counter() + seconds
        while True:
            self.speed.sample()
            with self.spans.span("setup", mode="setup-only"):
                self.workload.setup(self.seed, self.spans)
            gc.collect()
            if time.perf_counter() >= deadline:
                return


def scaled(run: Run, record: dict) -> float:
    """A span's duration in seconds, rescaled to the nominal host speed
    (see perfbench/calibrate.py)."""
    start, end = record["start_ns"], record["end_ns"]
    return (end - start) / 1e9 * run.speed.scale(start, end)


def sweep_seconds(run: Run) -> float:
    """Sum over experiments of each one's median rescaled execute
    time: a slow spell of the host then costs only the experiments it
    overlapped."""
    per_experiment: Dict[str, List[float]] = {}
    for r in run.spans.select("ExperimentSpec.execute"):
        per_experiment.setdefault(r["exp_id"], []).append(scaled(run, r))
    return sum(statistics.median(times) for times in per_experiment.values())


def end_to_end(run: Run) -> Tuple[Dict[str, float], Dict[str, str]]:
    run.measure(run.seconds, "timed")
    first = run.first
    wall = [scaled(run, r) for r in run.spans.select("run", mode="timed")]
    setup = [scaled(run, r) for r in run.spans.select("setup")]
    calibration = [s[2] for s in run.speed.samples]
    tail = tail_percentile(len(first.op_ns))
    sweep = run.workload.name == "paper_sweep"
    values = {
        "wall_s": sweep_seconds(run) if sweep else statistics.median(wall),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": run.peak_rss_mb,
        "sim_makespan_us": first.makespan_ns / 1000,
        "sim_op_p50_ns": percentile(first.op_ns, 50),
        "sim_op_tail_ns": percentile(first.op_ns, tail),
    }
    host = (f"; host {statistics.median(run.spans.seconds('run', mode='timed')):.3f}"
            f" s per rep at calibration {statistics.median(calibration):.4f} s"
            f" ({len(calibration)} samples)")
    notes = {
        "wall_s": (f"sum of per-experiment medians of {len(wall)} sweeps"
                   if sweep else f"median of {len(wall)}") + host,
        "setup_s": f"median of {len(setup)}; host "
                   f"{statistics.median(run.spans.seconds('setup')):.4f} s",
        "peak_rss_mb": "process high-water mark after one repetition",
        "sim_op_p50_ns": f"of {len(first.op_ns)} ops",
        "sim_op_tail_ns": f"p{tail:g} of {len(first.op_ns)} ops",
    }
    return values, notes


def per_layer(run: Run, names: Sequence[str]) -> Tuple[Dict[str, float], Dict[str, str]]:
    from perfbench.layers import LAYERS, LayerProfile

    run.measure(run.seconds / 3, "untraced")
    start = time.perf_counter()
    profiles = run.measure(run.seconds * 2 / 3, "traced", profiled=True)
    traced_s = time.perf_counter() - start
    counts = run.first.counts
    untraced = statistics.median(run.spans.seconds("run", mode="untraced"))
    traced = statistics.median(run.spans.seconds("run", mode="traced"))
    runs = [LayerProfile(run_prof) for _, run_prof in profiles]
    setups = [LayerProfile(setup_prof) for setup_prof, _ in profiles]
    spans_s = (run.spans.seconds("run", mode="traced")
               + run.spans.seconds("setup", mode="traced"))
    for layer_profile, span_s in zip(runs + setups, spans_s):
        if not layer_profile.covers(span_s):
            run.failed += 1
            run.problems.append(
                f"layer self times sum to {sum(layer_profile.self_s.values())}"
                f" s in a profiled phase of {span_s} s")
    self_s = {layer: statistics.median(p.self_s[layer] for p in runs)
              for layer in LAYERS + ("other",)}
    calls = runs[0].calls
    events, hops, ops = (counts["sim.events"], counts["network.packet_hops"],
                         counts["hib.ops_issued"])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values: Dict[str, float] = dict(counts)
    values.update({f"{layer}.self_s": s for layer, s in self_s.items()})
    values.update({
        "sim.host_ns_per_event": ratio(untraced * 1e9, events),
        "sim.calls_per_event": ratio(calls["sim"], events),
        "network.events_per_hop": ratio(events, hops),
        "network.calls_per_hop": ratio(calls["network"], hops),
        "network.setup_self_s": statistics.median(
            p.self_s["network"] for p in setups),
        "hib.calls_per_op": ratio(calls["hib"], ops),
        "machine.calls_per_op": ratio(calls["machine"], ops),
        "trace.overhead_x": traced / untraced,
    })
    untraced_reps = [r["rep"] for r in run.spans.records
                     if r["name"] == "rep" and r["mode"] == "untraced"]
    for name in names:
        if name.startswith("exp.") and name.endswith(".wall_s"):
            family = name[len("exp."):-len(".wall_s")]
            values[name] = statistics.median(
                sum(run.spans.seconds("ExperimentSpec.execute", family=family,
                                      rep=rep), 0.0)
                for rep in untraced_reps)
    total = sum(self_s.values())
    notes = {f"{layer}.self_s": f"{100 * s / total:5.1f}% of profiled run"
             for layer, s in self_s.items()}
    notes["trace.overhead_x"] = (
        f"traced {traced:.3f} s / untraced {untraced:.3f} s "
        f"({len(profiles)} traced reps in {traced_s:.1f} s)")
    return values, notes


def print_table(title: str, metrics: Dict[str, dict], notes: Dict[str, str]) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']:12s} "
              f"{notes.get(name, '')}")


def run_one(args: argparse.Namespace) -> int:
    spec = load_spec()
    import_simulator()
    workload = make_workload(args.workload)
    run = Run(workload, args.seed, args.seconds)
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if args.trace:
        values, notes = per_layer(run, names)
    else:
        values, notes = end_to_end(run)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in names}
    correct = run.failed == 0
    print_table(f"{args.workload} seed={args.seed} trace={args.trace}: "
                f"{'correct' if correct else 'INCORRECT'}, "
                f"{run.failed}/{run.attempted} failed "
                f"(error_rate {run.failed / run.attempted:.3g}), "
                f"{run.reps} repetitions", metrics, notes)
    for problem in sorted(set(run.problems)):
        print(f"  problem: {problem}")
    out = ROOT / ".perfbench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.spans.json")
    run.spans.write(out)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Run every workload, each in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], check=False)
        status = status or child.returncode
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time (default: run_seconds "
                        "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
