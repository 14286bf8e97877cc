"""Constructive VLIW microkernel scheduler.

Builds explicit instruction DAGs for the accumulation-chain microkernel
(operand loads, chained VMACs, store drains, cluster sequencing) and runs a
deterministic greedy list scheduler against per-class slot limits. The
resulting cycle counts are the measured counterpart to the closed-form lower
bounds in ``asymtile.pipeline``: for matched parameters the schedule can only
be slower, never faster.

Both halves work on dense lists, because they run once per kernel and a
kernel has thousands of instructions. A DAG is a list of ``Instruction``
NamedTuples, and an instruction's id is its position in that list: each of
its preds names an earlier position. The scheduler takes the DAG on exactly
that contract, checked once: ids index its priority, pool and cycle lists
directly, and the list order is the topological order. It reads the DAG
once into columns (kinds, slots, latencies, preds, clusters) and sets up
from those. Its per-edge work is done once per distinct pred tuple, not per
instruction: instructions with equal preds (a round's steady loads, say)
form a group with one ready cycle. Latencies and delays are whole cycles,
so its pool heaps hold plain int keys, (top − priority)·n + id, ties
breaking by ascending id, and instructions not yet ready wait in a dict of
due cycle -> ids.

:func:`kernel_run`, which the efficiency model and the soundness check
read, schedules each distinct (spec, build options) kernel once per process:
a design-space search scores many tiles that share a few kernel shapes. It
also schedules back-to-back (sequential) clusters only once: they run in
disjoint windows, so n of them take n times one cluster's cycles.
"""

from __future__ import annotations

import heapq
import io
import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from asymtile.arch import ConfigError
from asymtile.pipeline import (
    KernelShapeError,
    LoadClass,
    MicrokernelSpec,
    total_latency,
)

SLOT_LOAD = "ld"
SLOT_STORE = "st"
SLOT_VMAC = "vmac"

# Distinct (spec, build options) summaries kept by kernel_run. The simulated
# reference search (config1, 4096x4096x2048) needs 15: four one-cluster
# schedules and 11 multi-cluster entries scaled from them. Random soundness
# specs never repeat.
KERNEL_RUN_CACHE_SIZE = 1024


class Instruction(NamedTuple):
    """One VLIW operation: issued on ``slot``, result ready after ``latency``.

    An instruction's id is its position in its DAG's list; it stores none.
    ``preds`` is a tuple of (predecessor id, required issue delay) pairs,
    each naming an earlier position: this instruction may not issue before
    pred_issue + delay. Latencies and delays are whole cycles, ints >= 0.
    The scheduler groups equal pred tuples, so they must be hashable.
    ``group`` is the owning chain cluster, for phase measurements. A
    NamedTuple, as every unvalidated record is (see the ``asymtile``
    package docstring); a kernel DAG holds thousands of them.
    """

    kind: str
    slot: str
    latency: int
    preds: tuple[tuple[int, int], ...] = ()
    group: int = 0


class ScheduleResult(NamedTuple):
    """Issue cycles and summary metrics of one scheduled DAG.

    ``cycle_of[i]`` is the issue cycle of instruction i. ``vmac_issue_rate``
    is VMACs per cycle against a one-per-cycle peak. ``ii_observed`` is the
    mean gap between consecutive VMAC issues within each cluster (gaps
    across clusters excluded), or None when no cluster has two VMACs.
    """

    cycle_of: list[int]
    total_cycles: int
    vmac_issue_rate: Fraction
    phase_times: tuple[int, int, int]
    ii_observed: Fraction | None


def slots_for(spec: MicrokernelSpec) -> dict[str, int]:
    """Slots per class; the core has one VMAC slot."""
    return {SLOT_LOAD: spec.u_ld, SLOT_STORE: spec.u_st, SLOT_VMAC: 1}


def derive_cluster_shape(chains: int) -> tuple[int, int]:
    """(rows, cols) arrangement of chains for operand sharing: the most
    nearly square factorisation of ``chains``."""
    rows = max(r for r in range(1, math.isqrt(chains) + 1) if chains % r == 0)
    return rows, chains // rows


def build_microkernel_dag(
    spec: MicrokernelSpec,
    *,
    share_inputs: bool = True,
    double_buffer: bool = True,
    overlap_clusters: bool = False,
) -> list[Instruction]:
    """Emit the instruction DAG for ``spec`` under the given buffering options.

    Per cluster: the prolog load classes (each unaligned load preceded by a
    pointer-pop companion), n_accum VMACs assigned round-robin to the chains
    with accumulator RAW distance pipeline_depth within a chain, fresh operand
    loads per steady round (shared across the cluster's row/column structure
    when share_inputs), and n_store stores per chain after the
    VMAC-to-store forwarding latency.

    Register reuse turns into edges. Input registers: a round's loads must
    wait for the VMACs two rounds back (the other buffer half); without
    double_buffer they also wait for the round immediately before (same
    registers), so the single-buffered edge set is a strict superset.
    Accumulators and cluster order: with overlap_clusters the next cluster's
    chain j may start once chain j's registers drain (its last store has
    issued and its last VMAC cleared the pipeline), letting loads and early
    VMACs overlap the neighbor's epilog; without it the next cluster's prolog
    waits for the previous cluster's final stores to complete.

    Every pred precedes its instruction in the list. Round t holds the
    chains j with t * chains + j < n_accum, a prefix of the chains, so chain
    j's last VMAC is in round (n_accum - 1 - j) // chains.

    Raises :class:`~asymtile.pipeline.KernelShapeError`, before emitting
    anything, for a kernel it cannot build: shared operands with fewer than
    two loads per VMAC, or, when a chain runs more than one round, a prolog
    with fewer loads than a steady round consumes.
    """
    if share_inputs and spec.r_load < 2:
        raise KernelShapeError("share_inputs needs r_load >= 2 (one row and one column operand)")
    chains = spec.chains
    rows, cols = derive_cluster_shape(chains)
    n_accum = spec.n_accum
    n_rounds = -(-n_accum // chains)
    # A steady round loads, per chain, the operands it does not share, and
    # with share_inputs one operand per cluster row and one per column.
    extra = spec.r_load - 2 if share_inputs else spec.r_load
    per_round = extra * chains + (rows + cols if share_inputs else 0)
    if n_rounds > 1 and spec.prolog_load_count < per_round:
        raise KernelShapeError(
            f"prolog supplies {spec.prolog_load_count} loads but a steady round "
            f"consumes {per_round}"
        )
    steady_latency = max(c.latency for c in spec.load_classes)
    depth = spec.pipeline_depth
    rounds = [range(min(chains, n_accum - t * chains)) for t in range(n_rounds)]
    live_chains = rounds[0]
    last_round = [(n_accum - 1 - j) // chains for j in live_chains]

    instrs: list[Instruction] = []
    emit = instrs.append
    # tuple.__new__ on the field tuple makes the same Instruction as the
    # generated NamedTuple constructor, in less than half the time.
    new = tuple.__new__
    gate: tuple[tuple[int, int], ...] = ()  # (final store, delay) per chain
    prev_last_vmac: list[int] = []
    prev_last_store: list[int] = []

    for cl in range(spec.n_clusters):
        prolog_preds: list[tuple[int, int]] = []
        for cls in spec.load_classes:
            latency = cls.latency
            for _ in range(cls.count):
                if cls.unaligned:
                    pop = len(instrs)
                    emit(new(Instruction, ("vload_pop", SLOT_LOAD, 1, gate, cl)))
                    preds = ((pop, 1),)
                else:
                    preds = gate
                vid = len(instrs)
                emit(new(Instruction, ("vload", SLOT_LOAD, latency, preds, cl)))
                prolog_preds.append((vid, latency))
        round0_preds = tuple(prolog_preds)

        round_vmacs: list[list[int]] = []  # round -> VMAC id of each chain
        vmacs: list[int] = []
        for j in live_chains:
            preds = round0_preds
            if overlap_clusters and cl > 0:
                preds += ((prev_last_store[j], 1), (prev_last_vmac[j], depth))
            vid = len(instrs)
            emit(new(Instruction, ("vmac", SLOT_VMAC, depth, preds, cl)))
            vmacs.append(vid)
        round_vmacs.append(vmacs)

        for t in range(1, n_rounds):
            in_round = rounds[t]
            # Round 1 has no two-back round to reuse registers from, but in
            # sequential mode it must still sit behind the cluster gate.
            war = tuple((v, 1) for v in round_vmacs[t - 2]) if t >= 2 else gate
            if not double_buffer:
                war += tuple((v, 1) for v in round_vmacs[t - 1])
            if share_inputs:
                shared: list[tuple[int, int]] = []
                n_row_loads = (len(in_round) - 1) // cols + 1
                # The row operands' loads, then the column operands'.
                for _ in range(n_row_loads + min(len(in_round), cols)):
                    vid = len(instrs)
                    emit(new(Instruction, ("vload", SLOT_LOAD, steady_latency, war, cl)))
                    shared.append((vid, steady_latency))
                load_preds = [
                    [shared[j // cols], shared[n_row_loads + j % cols]] for j in in_round
                ]
            else:
                load_preds = [[] for _ in in_round]
            for j in in_round:
                own = load_preds[j]
                for _ in range(extra):
                    vid = len(instrs)
                    emit(new(Instruction, ("vload", SLOT_LOAD, steady_latency, war, cl)))
                    own.append((vid, steady_latency))
            prev = round_vmacs[t - 1]
            vmacs = []
            for j in in_round:
                own = load_preds[j]
                own.append((prev[j], depth))
                vid = len(instrs)
                emit(new(Instruction, ("vmac", SLOT_VMAC, depth, tuple(own), cl)))
                vmacs.append(vid)
            round_vmacs.append(vmacs)

        gate_of: list[tuple[int, int]] = []
        last_vmac_of: list[int] = []
        last_store_of: list[int] = []
        for j in live_chains:
            last_vmac = round_vmacs[last_round[j]][j]
            last_vmac_of.append(last_vmac)
            link = (last_vmac, spec.l_vmac_to_store)
            for _ in range(spec.n_store):
                sid = len(instrs)
                emit(new(Instruction, ("vstore", SLOT_STORE, spec.l_store, (link,), cl)))
                link = (sid, 1)
            last_store_of.append(sid)
            gate_of.append((sid, spec.l_store))

        prev_last_vmac = last_vmac_of
        prev_last_store = last_store_of
        gate = () if overlap_clusters else tuple(gate_of)

    return instrs


def schedule(dag: list[Instruction], slots: dict[str, int]) -> ScheduleResult:
    """Greedy cycle-by-cycle list schedule of ``dag`` onto ``slots``.

    Each cycle, ready instructions issue in priority order (longest
    delay-weighted path to any sink, ties by ascending id) up to the slot
    count of their class, the classes taken in sorted order. Deterministic
    for identical inputs.

    ``dag`` must be dense, as :func:`build_microkernel_dag` emits it: each
    pred of the instruction at position i names a position below i, and
    each instruction's slot class has a slot. Anything else raises
    ConfigError, for the first fault in list order (at one position the slot
    class is checked before the preds). The list order is then a
    topological order, so priorities come from one backward sweep.

    The setup reads the DAG once, into columns (``zip(*dag)``), and works
    on those: one comprehension over ``dict.setdefault`` numbers the
    distinct pred tuples in the order they first appear, each group's
    successor edges are added once, in that order, and the summary reads
    the kind, cycle, latency and cluster columns.

    Per-edge work is done once per group, the instructions with equal pred
    tuples (a round's steady loads share one): a group keeps one
    unissued-pred count and one ready cycle, successor lists map a pred to
    (group, delay), and priorities read each group's largest member
    priority. A group's members fall due together, into a dict of due
    cycle -> ids. Pool heaps hold ints (top − priority)·n + id, top being
    the largest priority.

    Latencies and delays are whole cycles, ints >= 0, as the builder emits
    them. A ready cycle is then always above the cycle it is set in, so
    each cycle takes only its own due list, and an idle gap jumps to the
    earliest due cycle without passing another.
    """
    n = len(dag)
    if not n:
        return ScheduleResult(
            cycle_of=[], total_cycles=0, vmac_issue_rate=Fraction(0),
            phase_times=(0, 0, 0), ii_observed=None,
        )
    kinds, slot_names, latencies, pred_col, cluster_of = zip(*dag)
    classes = sorted(slots)
    pools: list[list[int]] = [[] for _ in classes]
    pool_for = {name: pool for name, pool in zip(classes, pools) if slots[name] >= 1}
    pool_of = list(map(pool_for.get, slot_names))
    group_index: dict[tuple, int] = {}  # pred tuple -> group, by first appearance
    group_of = [group_index.setdefault(preds, len(group_index)) for preds in pred_col]
    members: list[list[int]] = [[] for _ in group_index]  # group -> ids, ascending
    for i, g in enumerate(group_of):
        members[g].append(i)

    # The first fault in list order is raised, the slot class before the
    # preds at one position, as a pass checking each instruction would. A
    # group's preds are checked at its first member, so for every later one,
    # and groups come in list order: the first bad pred found is the
    # earliest, and only groups before the first bad slot are checked.
    bad_slot = pool_of.index(None) if None in pool_of else n
    succs: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # id -> (group, delay)
    for g, preds in enumerate(group_index):
        first = members[g][0]
        if first >= bad_slot:
            break
        for pid, delay in preds:
            if not 0 <= pid < first:
                raise ConfigError(f"instruction {first} depends on id {pid}, not an earlier one")
            succs[pid].append((g, delay))
    if bad_slot < n:
        raise ConfigError(f"no slots for class {slot_names[bad_slot]!r}")

    # A group's members all come after its preds, so the sweep has seen them.
    prio: list[int] = []  # built last position first
    group_prio = [0] * len(members)
    for best, out, own in zip(reversed(latencies), reversed(succs), reversed(group_of)):
        for g, delay in out:
            if delay + group_prio[g] > best:
                best = delay + group_prio[g]
        prio.append(best)
        if best > group_prio[own]:
            group_prio[own] = best
    prio.reverse()
    top = max(prio)
    key = [(top - p) * n + i for i, p in enumerate(prio)]

    remaining = [len(preds) for preds in group_index]  # unissued preds
    ready_bound = [0] * len(members)
    # Each group falls due once, so its member list becomes the due list.
    # Position 0 passed the pred check, so group 0 holds every root.
    due: dict[int, list[int]] = {0: members[0]}
    issue_classes = [(pool, slots[name]) for name, pool in zip(classes, pools)]
    heappush = heapq.heappush
    heappop = heapq.heappop

    # The lowest unissued position has all its preds issued, so it is pooled
    # or due: the loop ends only when every instruction has issued.
    cycle_of = [0] * n
    cycle = 0
    while True:
        for i in due.pop(cycle, ()):
            heappush(pool_of[i], key[i])
        for bucket, cap in issue_classes:
            n_issued = 0
            while bucket and n_issued < cap:
                i = heappop(bucket) % n
                cycle_of[i] = cycle
                n_issued += 1
                for g, delay in succs[i]:
                    if cycle + delay > ready_bound[g]:
                        ready_bound[g] = cycle + delay
                    remaining[g] -= 1
                    if not remaining[g]:
                        ready = ready_bound[g] if ready_bound[g] > cycle else cycle + 1
                        ids = due.get(ready)
                        if ids is None:
                            due[ready] = members[g]
                        else:
                            ids += members[g]
        if any(pools):
            cycle += 1
        elif due:
            cycle = min(due)
        else:
            break

    total = 0
    vmac_cycles: dict[int, list[int]] = {}  # cluster -> [first, last, count]
    for kind, c, latency, cluster in zip(kinds, cycle_of, latencies, cluster_of):
        end = c + latency if kind == "vstore" else c + 1
        if end > total:
            total = end
        if kind == "vmac":
            seen = vmac_cycles.get(cluster)
            if seen is None:
                vmac_cycles[cluster] = [c, c, 1]
            else:
                if c < seen[0]:
                    seen[0] = c
                elif c > seen[1]:
                    seen[1] = c
                seen[2] += 1
    if vmac_cycles:
        spans = vmac_cycles.values()
        first_v = min(first for first, _, _ in spans)
        last_v = max(last for _, last, _ in spans)
        phases = (first_v, last_v - first_v, total - last_v)
        n_vmacs = sum(count for _, _, count in spans)
        rate = Fraction(n_vmacs, total)
        n_gaps = n_vmacs - len(vmac_cycles)
        span = sum(last - first for first, last, _ in spans)
        ii_observed = Fraction(span, n_gaps) if n_gaps else None
    else:
        phases = (total, 0, 0)
        rate = Fraction(0)
        ii_observed = None
    return ScheduleResult(
        cycle_of=cycle_of,
        total_cycles=total,
        vmac_issue_rate=rate,
        phase_times=phases,
        ii_observed=ii_observed,
    )


class KernelRun(NamedTuple):
    """Summary of one scheduled kernel: what callers that do not need the
    per-instruction cycles read. Immutable, so a cached one can be shared."""

    total_cycles: int
    first_vmac_cycle: int
    vmac_issue_rate: Fraction


def kernel_run(
    spec: MicrokernelSpec,
    overlap_clusters: bool = False,
    *,
    share_inputs: bool = True,
    double_buffer: bool = True,
) -> KernelRun:
    """Build and schedule ``spec``'s DAG under the given options; summarise.

    Memoised per process on (spec, options): specs and their load classes
    are frozen with int counts and bool flags, and the builder and the
    scheduler are deterministic, so equal keys give equal schedules. The
    options go on positionally, so every spelling of one call shares an
    entry. With at most one cluster the two sequencing modes build the same
    DAG, so they share an entry too. A builder error is not cached; it
    raises on every call. ``kernel_run.cache_info()`` and ``cache_clear()``
    reach the cache.

    Sequential clusters (``overlap_clusters`` false, n > 1 of them) are not
    built: the result is the one-cluster run, itself memoised, with n times
    its cycles. This is exact. Every instruction of cluster c + 1 waits,
    directly or through another instruction, on the cluster gate: all
    chains' final stores of cluster c, with delay ``l_store``. Every
    instruction of cluster c reaches a final store, so it issues, and ends,
    by then. The clusters therefore run in disjoint windows, and the
    scheduler only ever compares instructions of one cluster and one slot
    class. Cluster c's ids are cluster 0's plus c times the cluster size.
    Its priorities shift by one constant per slot class. Only final stores
    have edges out of the cluster, all to the same gated instructions, so
    the stores shift by one constant. Every load or VMAC path ends at a
    terminal VMAC, a chain's last VMAC with no successor but its stores.
    Within one build they all have one priority, max(``pipeline_depth``,
    their store path). No other instruction's own latency or store path is its
    longest: a non-terminal last VMAC also feeds a load of a later round.
    So loads and VMACs shift by one constant too. Each window is then the
    one-cluster schedule shifted in time, with the same first VMAC cycle
    and VMAC issue rate.
    """
    return _kernel_run(
        spec, overlap_clusters and spec.n_clusters > 1, share_inputs, double_buffer
    )


@lru_cache(maxsize=KERNEL_RUN_CACHE_SIZE)
def _kernel_run(
    spec: MicrokernelSpec, overlap_clusters: bool, share_inputs: bool, double_buffer: bool
) -> KernelRun:
    n = spec.n_clusters
    if not overlap_clusters and n > 1:
        one = _kernel_run(replace(spec, n_clusters=1), False, share_inputs, double_buffer)
        return KernelRun(one.total_cycles * n, one.first_vmac_cycle, one.vmac_issue_rate)
    dag = build_microkernel_dag(
        spec,
        share_inputs=share_inputs,
        double_buffer=double_buffer,
        overlap_clusters=overlap_clusters,
    )
    result = schedule(dag, slots_for(spec))
    return KernelRun(result.total_cycles, result.phase_times[0], result.vmac_issue_rate)


kernel_run.cache_info = _kernel_run.cache_info
kernel_run.cache_clear = _kernel_run.cache_clear


def dump_schedule_csv(dag: list[Instruction], result: ScheduleResult) -> str:
    """Render a schedule as CSV rows (cycle, slot, instruction id, kind)."""
    out = io.StringIO()
    out.write("cycle,slot,id,kind\n")
    rows = sorted(
        (cycle, ins.slot, i, ins.kind)
        for i, (cycle, ins) in enumerate(zip(result.cycle_of, dag))
    )
    for cycle, slot, vid, kind in rows:
        out.write(f"{cycle},{slot},{vid},{kind}\n")
    return out.getvalue()


# -- randomized soundness harness --------------------------------------------

def random_microkernel_spec(rng: random.Random) -> tuple[MicrokernelSpec, dict]:
    """Draw a machine-plausible spec plus build options for soundness runs.

    The draw is constrained to kernels a real VLIW core could run: one store
    slot, store forwarding at least as long as the MAC pipeline drain,
    per-round load pressure at most twice the load bandwidth, full rounds,
    and a prolog that covers one steady round's operands. Outside
    this envelope the closed forms stop being lower bounds (they assume
    exactly these resource relations), so samples there would not test
    anything meaningful.
    """
    u_ld = rng.choice([1, 2, 4])
    pipeline_depth = rng.randint(1, 6)
    chains = rng.randint(1, 5)
    r_load = u_ld * rng.choice([1, 2])
    share = bool(r_load >= 2 and rng.random() < 0.5)
    classes = [LoadClass(latency=rng.randint(2, 10), count=r_load * chains)]
    if rng.random() < 0.4:
        classes.append(
            LoadClass(
                latency=rng.randint(1, 10),
                count=rng.randint(1, 4),
                unaligned=rng.random() < 0.3,
            )
        )
    spec = MicrokernelSpec(
        pipeline_depth=pipeline_depth,
        u_ld=u_ld,
        u_st=1,
        load_classes=tuple(classes),
        r_load=r_load,
        chains=chains,
        n_accum=chains * rng.randint(1, 8),
        n_clusters=rng.randint(1, 6),
        l_vmac_to_store=2 * pipeline_depth + rng.randint(0, 6),
        l_store=rng.randint(1, 3),
        n_store=rng.randint(3, 5),
    )
    options = {
        "share_inputs": share,
        "double_buffer": rng.random() < 0.5,
    }
    return spec, options


def check_bounds_hold(
    spec: MicrokernelSpec, options: dict
) -> list[tuple[str, int, int]]:
    """Compare one spec's schedule against every closed-form bound.

    Returns (bound name, bound value, simulated value) triples for any bound
    the simulation beats; empty means sound. Both cluster sequencing modes
    are checked, through :func:`kernel_run`, which schedules a one-cluster
    kernel once for both. Each total bound is at least ``t_prolog + t_steady
    + t_epilog``, the prolog and epilog at least one cycle each, so the
    ``t_steady`` and ``t_epilog`` comparisons of a whole schedule fire only
    when a total comparison fires too, until phases are compared with
    phases (ROADMAP item 2).
    """
    bounds = total_latency(spec)
    violations: list[tuple[str, int, int]] = []
    for overlap, total in ((False, "l_total_sequential"), (True, "l_total_overlapped")):
        res = kernel_run(spec, overlap, **options)
        for name, simulated in ((total, res.total_cycles), ("t_prolog", res.first_vmac_cycle),
                                ("t_steady", res.total_cycles), ("t_epilog", res.total_cycles)):
            bound = getattr(bounds, name)
            if simulated < bound:
                violations.append((name, bound, simulated))
    return violations


def verify_random_specs(n: int, seed: int = 0) -> list[dict]:
    """Run the soundness property over ``n`` random specs; list violations."""
    rng = random.Random(seed)
    failures: list[dict] = []
    for i in range(n):
        spec, options = random_microkernel_spec(rng)
        bad = check_bounds_hold(spec, options)
        if bad:
            failures.append({"index": i, "spec": spec, "options": options, "violations": bad})
    return failures
