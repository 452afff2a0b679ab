"""The three benchmark workloads.

Each workload has three phases, all driven through the simulator's
public surface:

- ``setup(seed, spans)`` builds the cluster and stages its programs
  (or builds the experiment registry) and returns the staged state;
- ``run(state, spans, between)`` is the timed phase; a workload made of
  independent steps calls ``between()`` before each one, outside the
  steps' spans (the benchmark may time its calibration loop there);
- ``verify(state)`` checks the program's outputs and returns an
  :class:`Outcome`.

A simulation that deadlocks, runs out of simulated time or raises is
recorded in the state by ``run`` and counted as failed operations by
``verify``, so a broken program gives a result that says so.

``spans`` is the :class:`~perfbench.spans.Spans` recorder; the
workloads open one span around each of their calls into ``repro.api``.
"""

from __future__ import annotations

import functools
import inspect
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

from repro.api import Cluster, ClusterConfig, Proc
from repro.exp.registry import default_registry
from repro.exp.spec import canonical_json_bytes
from repro.sim import SimulationDeadlock
from repro.workloads.hotspot import run_hotspot_counter

#: The ``HIB.stats`` counters of operations a processor issued.
HIB_OPS = ("remote_writes", "remote_reads", "atomics", "copies")

#: Simulated time ``Cluster.run(join=...)`` keeps advancing after the
#: last program returns (its documented ``drain_ns`` default).
DRAIN_NS = inspect.signature(Cluster.run).parameters["drain_ns"].default


@dataclass
class Outcome:
    """What one repetition did, as checked after it ran."""

    #: Simulated remote operations, or experiments in ``paper_sweep``.
    attempted: int
    #: Operations whose output was wrong.
    failed: int
    #: Simulated ns per operation (the ``sim_op_*`` samples).
    op_ns: List[int]
    #: Simulated ns from the first program start to the last return.
    makespan_ns: int
    #: Public simulator counters summed over the workload's clusters.
    counts: Dict[str, float]
    #: One line per failed check, for the report.
    problems: List[str] = field(default_factory=list)


def _bare_config(**kwargs) -> ClusterConfig:
    """Tracing, metrics and kernel profiling off: the configuration
    sweeps run in."""
    return ClusterConfig(trace=False, metrics=False, profile_kernel=False,
                         **kwargs)


def harvest(clusters: Sequence[Cluster], elapsed_ns: Sequence[int]) -> Dict[str, float]:
    """Per-layer counters read from public attributes of ``clusters``.

    ``elapsed_ns[i]`` is the simulated time cluster ``i`` was busy: the
    base of ``network.link_busy_pct_max``.
    """
    counts: Dict[str, float] = {
        "sim.events": 0, "network.packet_hops": 0,
        "network.switch_buffer_stalls": 0, "network.link_busy_pct_max": 0.0,
        "hib.ops_issued": 0, "hib.outstanding_peak": 0,
        "machine.bus_wait_ns": 0, "machine.cpu_io_stall_ns": 0,
    }
    for cluster, elapsed in zip(clusters, elapsed_ns):
        fabric = cluster.fabric
        counts["sim.events"] += cluster.sim.events_executed
        counts["network.packet_hops"] += sum(
            link.packets_carried for link in fabric.links)
        counts["network.switch_buffer_stalls"] += sum(
            switch.buffer_stalls
            for plane in fabric.switches.values() for switch in plane.values())
        if elapsed and fabric.links:
            counts["network.link_busy_pct_max"] = max(
                counts["network.link_busy_pct_max"],
                max(100.0 * link.busy_ns / elapsed for link in fabric.links))
        for node in cluster.nodes:
            counts["hib.ops_issued"] += sum(
                node.hib.stats[kind] for kind in HIB_OPS)
            counts["hib.outstanding_peak"] = max(
                counts["hib.outstanding_peak"],
                node.hib.outstanding.max_outstanding)
            counts["machine.bus_wait_ns"] += (
                node.membus.wait_ns + node.tc_bus.wait_ns)
            counts["machine.cpu_io_stall_ns"] += node.cpu.io_stall_ns
    return counts


def _quiescence_failures(cluster: Cluster, problems: List[str]) -> int:
    """Outstanding operations left after the run (0 when quiescent)."""
    try:
        cluster.assert_quiescent()
    except AssertionError as exc:
        problems.append(f"not quiescent: {exc}")
        return sum(node.hib.outstanding.count for node in cluster.nodes)
    return 0


class FabricStream:
    """256 hosts on a 2-D mesh, up*/down* ``tree`` routing, lossless.

    Every host streams unfenced remote stores to its ring neighbour and
    to seed-drawn far partners (one per derangement), writing each
    word more than once, then FENCEs.  Host time goes to the
    kernel and the per-hop link/switch pumps, so this is where a fabric
    or kernel-loop change shows.
    """

    name = "fabric_stream"
    hosts = 256
    far_partners = 3
    #: Stores to each partner, all to the one word of the partner's
    #: segment that belongs to this host.
    stores = 2

    def inputs(self, seed: int) -> List[List[int]]:
        """Every host's partners: its ring neighbour, then one far
        partner from each of ``far_partners`` seeded derangements."""
        rng = random.Random(seed)
        hosts = range(self.hosts)
        partners = [[(h + 1) % self.hosts] for h in hosts]
        for _ in range(self.far_partners):
            far = list(hosts)
            while any(p == h for h, p in enumerate(far)):
                rng.shuffle(far)
            for h in hosts:
                partners[h].append(far[h])
        return partners

    def setup(self, seed: int, spans) -> dict:
        partners = self.inputs(seed)
        with spans.span("build"):
            cluster = Cluster(_bare_config(
                n_nodes=self.hosts, protocol="none", topology="mesh",
                routing="tree"))
            segments = [cluster.alloc_segment(home=h, pages=1, name=f"s{h}")
                        for h in range(self.hosts)]
            procs = [cluster.create_process(node=h, name=f"w{h}")
                     for h in range(self.hosts)]
        # expected[(home, byte offset)] is the last value its one source
        # stores there: region r of a segment belongs to the host whose
        # r-th partner it is.
        expected: Dict[tuple, int] = {}
        ends: List[int] = [-1] * self.hosts
        with spans.span("start"):
            contexts = []
            for h, proc in enumerate(procs):
                stores = []
                for region, dst in enumerate(partners[h]):
                    base = proc.map(segments[dst])
                    for i in range(self.stores):
                        offset = 4 * region
                        value = (h << 16) | (region << 8) | i
                        stores.append((base + offset, value))
                        expected[(dst, offset)] = value

                def program(p, stores=stores, h=h):
                    for vaddr, value in stores:
                        yield p.store(vaddr, value)
                    yield p.fence()
                    ends[h] = cluster.now

                contexts.append(cluster.start(proc, program))
        return {"cluster": cluster, "segments": segments,
                "contexts": contexts, "expected": expected, "ends": ends}

    def run(self, state: dict, spans, between) -> None:
        with spans.span("Cluster.run"):
            try:
                state["cluster"].run(join=state["contexts"])
            except (SimulationDeadlock, TimeoutError) as exc:
                state["error"] = f"{type(exc).__name__}: {exc}"

    def verify(self, state: dict) -> Outcome:
        cluster, segments, ends = state["cluster"], state["segments"], state["ends"]
        problems: List[str] = [state["error"]] if "error" in state else []
        stale = sum(1 for (home, offset), value in state["expected"].items()
                    if segments[home].peek(offset) != value)
        if stale:
            problems.append(f"{stale} words do not hold their source's "
                            "last value")
        unfinished = ends.count(-1)
        if unfinished:
            problems.append(f"{unfinished} hosts never returned from FENCE")
        makespan = max(0, max(ends))
        return Outcome(
            attempted=self.hosts * (1 + self.far_partners) * self.stores,
            failed=stale + unfinished + _quiescence_failures(cluster, problems),
            op_ns=[end for end in ends if end >= 0],
            makespan_ns=makespan,
            counts=harvest([cluster], [makespan]),
            problems=problems,
        )


@contextmanager
def _per_host_think(think: Sequence[int]) -> Iterator[None]:
    """Make every ``Proc.think`` on node ``n`` last ``think[n]`` ns.

    ``run_hotspot_counter`` gives all hosts one think time; this is how
    the seeded per-host think times reach its programs.
    """
    original = Proc.think

    @functools.wraps(original)
    def think_for_node(self, ns):
        return original(self, think[self.node_id])

    Proc.think = think_for_node
    try:
        yield
    finally:
        Proc.think = original


class HotspotRmw:
    """16 hosts on one ``star`` switch, each running remote fetch&add
    on one counter homed at node 0 with seed-drawn think times.

    Two hops per operation (request and reply), read tokens and the
    atomic unit: host time leans on the HIB and the CPU model, so a
    HIB or machine change shows here and a fabric change barely does.
    """

    name = "hotspot_rmw"

    #: Bounds of the seed-drawn per-host think time, simulated ns.
    think_ns = (100, 400)

    def __init__(self, hosts: int = 16, ops_per_host: int = 250):
        self.hosts = hosts
        self.ops = ops_per_host

    def inputs(self, seed: int) -> List[int]:
        """The think time of every host, in simulated ns."""
        rng = random.Random(seed)
        return [rng.randint(*self.think_ns) for _ in range(self.hosts)]

    def setup(self, seed: int, spans) -> dict:
        think = self.inputs(seed)
        with spans.span("build"):
            cluster = Cluster(_bare_config(n_nodes=self.hosts, protocol="none",
                                           topology="star"))
        return {"cluster": cluster, "think": think}

    def run(self, state: dict, spans, between) -> None:
        with spans.span("Cluster.run"), _per_host_think(state["think"]):
            # Stages one program per host and runs them to completion.
            try:
                state["result"] = run_hotspot_counter(
                    state["cluster"], home=0, increments_per_node=self.ops,
                    think_ns=1)
            except (SimulationDeadlock, TimeoutError) as exc:
                state["error"] = f"{type(exc).__name__}: {exc}"

    def verify(self, state: dict) -> Outcome:
        cluster = state["cluster"]
        if "error" in state:
            # Which fetch&adds completed is unknown: all count as failed.
            return Outcome(attempted=self.hosts * self.ops,
                           failed=self.hosts * self.ops, op_ns=[],
                           makespan_ns=cluster.now,
                           counts=harvest([cluster], [cluster.now]),
                           problems=[state["error"]])
        result = state["result"]
        problems: List[str] = []
        lost = result.lost_updates
        if lost:
            problems.append(f"{lost} fetch&add updates lost")
        makespan = result.makespan_ns - DRAIN_NS
        return Outcome(
            attempted=self.hosts * self.ops,
            failed=abs(lost) + _quiescence_failures(cluster, problems),
            op_ns=[int(v) for v in result.atomic_ns.samples],
            makespan_ns=makespan,
            counts=harvest([cluster], [makespan]),
            problems=problems,
        )


@contextmanager
def _new_clusters() -> Iterator[List[Cluster]]:
    """Collect every :class:`Cluster` built inside the block."""
    made: List[Cluster] = []
    original = Cluster.__init__

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        made.append(self)

    Cluster.__init__ = init
    try:
        yield made
    finally:
        Cluster.__init__ = original


class PaperSweep:
    """Every spec in ``default_registry()``, run serially in-process.

    This is the job users run (``repro sweep``), and the only workload
    that exercises coherence, the faults/reliable transport, the
    collectives and the dor/adaptive torus.  Its parameters are
    committed, so the seed is unused.  An operation is one experiment;
    its simulated time is the simulated time its clusters advanced,
    including each ``Cluster.run`` drain.
    """

    name = "paper_sweep"

    def __init__(self, results_dir: Path):
        self.results_dir = results_dir

    def setup(self, seed: int, spans) -> dict:
        with spans.span("build"):
            return {"specs": default_registry()}

    def run(self, state: dict, spans, between) -> None:
        documents, errors, sim_ns, counts = {}, {}, [], []
        with spans.span("sweep"), _new_clusters() as made:
            for spec in state["specs"]:
                between()
                with spans.span("ExperimentSpec.execute",
                                exp_id=spec.exp_id, family=spec.family):
                    try:
                        documents[spec.exp_id] = spec.execute()
                    except Exception as exc:
                        errors[spec.exp_id] = f"{type(exc).__name__}: {exc}"
                elapsed = [cluster.now for cluster in made]
                sim_ns.append(sum(elapsed))
                counts.append(harvest(made, elapsed))
                made.clear()
        state.update(documents=documents, errors=errors, sim_ns=sim_ns,
                     counts=counts)

    def verify(self, state: dict) -> Outcome:
        problems = []
        for spec in state["specs"]:
            exp_id = spec.exp_id
            path = self.results_dir / f"{exp_id}.json"
            if exp_id in state["errors"]:
                problems.append(f"{exp_id}: {state['errors'][exp_id]}")
            elif not path.is_file() or (canonical_json_bytes(
                    state["documents"][exp_id]) != path.read_bytes()):
                problems.append(f"{exp_id}: document differs from {path}")
        totals: Dict[str, float] = {}
        for counts in state["counts"]:
            for key, value in counts.items():
                if key.endswith(("_max", "_peak")):
                    totals[key] = max(totals.get(key, 0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        return Outcome(
            attempted=len(state["specs"]),
            failed=len(problems),
            op_ns=state["sim_ns"],
            makespan_ns=sum(state["sim_ns"]),
            counts=totals,
            problems=problems,
        )
