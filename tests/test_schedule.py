import heapq
import importlib
import math
import random
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymtile.arch import PRECISION_PRESETS, ConfigError, ProblemSpec, TileConfig
from asymtile.pipeline import LoadClass, MicrokernelSpec, eff_micro, microkernel_for_tile, total_latency
from asymtile.schedule import (
    Instruction,
    build_microkernel_dag,
    check_bounds_hold,
    derive_cluster_shape,
    dump_schedule_csv,
    issue_cycles,
    kernel_run,
    ScheduleResult,
    random_microkernel_spec,
    schedule,
    slots_for,
    verify_random_specs,
)
from asymtile.search import SearchSpace, explore, rank
from conftest import adversarial_microkernel_spec

# The package exports the function ``schedule``, which hides the module.
schedule_module = importlib.import_module("asymtile.schedule")


# -- reference implementations -------------------------------------------------
# The dict-based builder and scheduler the dense-array versions replaced, kept
# as the oracle the property below compares against.


def reference_build(
    spec, *, share_inputs=True, cluster_shape=None, double_buffer=True, overlap_clusters=False
):
    if spec.n_accum < 1:
        raise ConfigError("n_accum must be >= 1 to build a kernel")
    shape = cluster_shape if cluster_shape is not None else derive_cluster_shape(spec.chains)
    rows, cols = shape
    if rows * cols != spec.chains:
        raise ConfigError(f"cluster_shape {shape} does not cover chains={spec.chains}")
    if share_inputs and spec.r_load < 2:
        raise ConfigError("share_inputs needs r_load >= 2")
    n_rounds = math.ceil(spec.n_accum / spec.chains)
    if share_inputs:
        per_round = rows + cols + (spec.r_load - 2) * spec.chains
    else:
        per_round = spec.r_load * spec.chains
    if n_rounds > 1 and spec.prolog_load_count < per_round:
        raise ConfigError("prolog does not cover a steady round")
    steady_latency = max(c.latency for c in spec.load_classes)

    instrs = []

    def add(kind, slot, latency, preds, group):
        vid = len(instrs)
        instrs.append(
            Instruction(kind=kind, slot=slot, latency=latency, preds=tuple(preds), group=group)
        )
        return vid

    prev_cluster_gate = []
    prev_cluster_last_vmac = {}
    prev_cluster_last_store = {}
    for cl in range(spec.n_clusters):
        prolog_ids = []
        for cls in spec.load_classes:
            for _ in range(cls.count):
                preds = []
                if cls.unaligned:
                    pop = add("vload_pop", "ld", 1, prev_cluster_gate, cl)
                    preds.append((pop, 1))
                else:
                    preds.extend(prev_cluster_gate)
                prolog_ids.append(add("vload", "ld", cls.latency, preds, cl))

        vmac_of = {}
        round_vmacs = defaultdict(list)
        for t in range(n_rounds):
            in_round = [j for j in range(spec.chains) if t * spec.chains + j < spec.n_accum]
            loads_of_chain = {j: [] for j in in_round}
            if t > 0:
                war = (
                    [(v, 1) for v in round_vmacs[t - 2]] if t >= 2 else list(prev_cluster_gate)
                )
                if not double_buffer:
                    war += [(v, 1) for v in round_vmacs.get(t - 1, [])]
                if share_inputs:
                    for r in sorted({j // cols for j in in_round}):
                        vid = add("vload", "ld", steady_latency, war, cl)
                        for j in in_round:
                            if j // cols == r:
                                loads_of_chain[j].append(vid)
                    for c in sorted({j % cols for j in in_round}):
                        vid = add("vload", "ld", steady_latency, war, cl)
                        for j in in_round:
                            if j % cols == c:
                                loads_of_chain[j].append(vid)
                    extra = spec.r_load - 2
                else:
                    extra = spec.r_load
                for j in in_round:
                    for _ in range(extra):
                        vid = add("vload", "ld", steady_latency, war, cl)
                        loads_of_chain[j].append(vid)

            for j in in_round:
                preds = []
                if t == 0:
                    preds.extend((lid, instrs[lid].latency) for lid in prolog_ids)
                    if overlap_clusters and cl > 0:
                        if j in prev_cluster_last_store:
                            preds.append((prev_cluster_last_store[j], 1))
                        if j in prev_cluster_last_vmac:
                            preds.append((prev_cluster_last_vmac[j], spec.pipeline_depth))
                else:
                    preds.extend((lid, steady_latency) for lid in loads_of_chain[j])
                    preds.append((vmac_of[(t - 1, j)], spec.pipeline_depth))
                vid = add("vmac", "vmac", spec.pipeline_depth, preds, cl)
                vmac_of[(t, j)] = vid
                round_vmacs[t].append(vid)

        gate = []
        last_vmac_of = {}
        last_store_of = {}
        for j in range(spec.chains):
            rounds_j = [t for t in range(n_rounds) if (t, j) in vmac_of]
            if not rounds_j:
                continue
            last_vmac = vmac_of[(rounds_j[-1], j)]
            last_vmac_of[j] = last_vmac
            prev = (last_vmac, spec.l_vmac_to_store)
            for _ in range(spec.n_store):
                sid = add("vstore", "st", spec.l_store, [prev], cl)
                prev = (sid, 1)
            last_store_of[j] = sid
            gate.append((sid, spec.l_store))
        prev_cluster_last_vmac = last_vmac_of
        prev_cluster_last_store = last_store_of
        prev_cluster_gate = [] if overlap_clusters else gate
    return instrs


def reference_schedule(dag, slots):
    # Takes preds to any position, earlier or later, and returns the issue
    # cycles as a dict keyed by position, beside the summary.
    if not dag:
        return {}, ScheduleResult(0, Fraction(0), (0, 0, 0), None, 0)
    instrs = dict(enumerate(dag))
    succs = defaultdict(list)
    indeg = {vid: 0 for vid in instrs}
    for vid, ins in instrs.items():
        if ins.slot not in slots or slots[ins.slot] < 1:
            raise ConfigError(f"no slots for class {ins.slot!r}")
        for pid, delay in ins.preds:
            if pid not in instrs:
                raise ConfigError(f"instruction {vid} depends on unknown id {pid}")
            succs[pid].append((vid, delay))
            indeg[vid] += 1

    order = [vid for vid, d in indeg.items() if d == 0]
    remaining = dict(indeg)
    head = 0
    while head < len(order):
        vid = order[head]
        head += 1
        for sid, _ in succs[vid]:
            remaining[sid] -= 1
            if remaining[sid] == 0:
                order.append(sid)
    if len(order) != len(dag):
        raise ConfigError("dependency cycle in instruction DAG")

    prio = {}
    for vid in reversed(order):
        best = instrs[vid].latency
        for sid, delay in succs[vid]:
            best = max(best, delay + prio[sid])
        prio[vid] = best

    ready_bound = {vid: 0 for vid in instrs}
    remaining = dict(indeg)
    future = []
    pool = {s: [] for s in slots}
    for vid in instrs:
        if indeg[vid] == 0:
            heapq.heappush(future, (0, -prio[vid], vid))

    cycle_of = {}
    cycle = 0
    n_done = 0
    while n_done < len(dag):
        while future and future[0][0] <= cycle:
            _, negp, vid = heapq.heappop(future)
            heapq.heappush(pool[instrs[vid].slot], (negp, vid))
        for slot_class in sorted(slots):
            cap = slots[slot_class]
            bucket = pool[slot_class]
            n = 0
            while n < cap and bucket:
                _, vid = heapq.heappop(bucket)
                cycle_of[vid] = cycle
                n += 1
                n_done += 1
                for sid, delay in succs[vid]:
                    ready_bound[sid] = max(ready_bound[sid], cycle + delay)
                    remaining[sid] -= 1
                    if remaining[sid] == 0:
                        heapq.heappush(
                            future, (max(ready_bound[sid], cycle + 1), -prio[sid], sid)
                        )
        if any(pool[s] for s in pool):
            cycle += 1
        elif future:
            cycle = max(cycle + 1, future[0][0])
        elif n_done < len(dag):
            raise ConfigError("scheduler stalled with unissued instructions")

    total = 0
    for vid, ins in instrs.items():
        total = max(total, cycle_of[vid] + (ins.latency if ins.kind == "vstore" else 1))
    vmacs = sorted((cycle_of[vid], ins.group) for vid, ins in instrs.items() if ins.kind == "vmac")
    if vmacs:
        first_v = vmacs[0][0]
        last_v = vmacs[-1][0]
        phases = (first_v, last_v - first_v, total - last_v)
        rate = Fraction(len(vmacs), total)
        by_group = defaultdict(list)
        for c, g in vmacs:
            by_group[g].append(c)
        gaps = [b - a for cycles in by_group.values() for a, b in zip(cycles, cycles[1:])]
        ii_observed = Fraction(sum(gaps), len(gaps)) if gaps else None
    else:
        phases = (total, 0, 0)
        rate = Fraction(0)
        ii_observed = None
    return cycle_of, ScheduleResult(total, rate, phases, ii_observed, len(dag))


def shuffle_positions(dag, rng):
    """The same DAG in shuffled list order, each pred renumbered to its
    instruction's new position, so some preds point forward."""
    order = list(range(len(dag)))  # new position -> old position
    rng.shuffle(order)
    new_of = {old: new for new, old in enumerate(order)}
    return [
        dag[old]._replace(preds=tuple((new_of[p], d) for p, d in dag[old].preds))
        for old in order
    ]


def assert_legal(dag, slots, cycle_of):
    """Every pred delay is met, and no slot class goes over its count."""
    used = Counter((cycle_of[i], ins.slot) for i, ins in enumerate(dag))
    assert all(count <= slots[slot] for (_, slot), count in used.items())
    for i, ins in enumerate(dag):
        for pid, delay in ins.preds:
            assert cycle_of[i] >= cycle_of[pid] + delay


def assert_same_schedule(dag, slots):
    got_cycles, (want_cycles, want) = issue_cycles(dag, slots), reference_schedule(dag, slots)
    assert len(got_cycles) == len(dag)
    assert_legal(dag, slots, want_cycles)
    assert_legal(dag, slots, got_cycles)
    assert got_cycles == [want_cycles[i] for i in range(len(dag))]
    assert schedule(dag, slots) == want


SPEC_DRAWS = [random_microkernel_spec, adversarial_microkernel_spec]


@st.composite
def tile_shaped_spec(draw) -> tuple[MicrokernelSpec, dict]:
    """A buildable spec with every field drawn, shaped by
    ``microkernel_for_tile`` to a tile with ``t_k`` from 8 to 512 and one to
    four clusters (the tile sets ``n_accum`` and ``n_clusters``). The
    prolog holds at least one unshared steady round's loads."""
    chains = draw(st.integers(1, 5))
    r_load = draw(st.integers(1, 4))
    classes = [LoadClass(draw(st.integers(1, 10)), r_load * chains + draw(st.integers(0, 2)),
                         draw(st.booleans()))]
    if draw(st.booleans()):
        classes.append(LoadClass(draw(st.integers(1, 10)), draw(st.integers(1, 3)), draw(st.booleans())))
    base = MicrokernelSpec(
        pipeline_depth=draw(st.integers(1, 8)),
        u_ld=draw(st.integers(1, 4)),
        u_st=draw(st.integers(1, 2)),
        load_classes=tuple(classes),
        r_load=r_load,
        chains=chains,
        l_vmac_to_store=draw(st.integers(0, 8)),
        l_store=draw(st.integers(1, 3)),
        n_store=draw(st.integers(1, 4)),
    )
    t_ma = 8 * draw(st.integers(1, 2))
    tile = TileConfig(t_ma, t_ma * draw(st.sampled_from([1, 2, 4])), 8 * draw(st.integers(1, 64)),
                      8 * chains * draw(st.integers(1, 2)))
    options = {
        "share_inputs": r_load >= 2 and draw(st.booleans()),
        "double_buffer": draw(st.booleans()),
    }
    return microkernel_for_tile(tile, base), options


@settings(max_examples=120, deadline=None)
@given(drawn=st.one_of(
    *(st.randoms(use_true_random=False).map(spec_draw) for spec_draw in SPEC_DRAWS),
    tile_shaped_spec(),
))
def test_dense_build_and_schedule_equal_reference(drawn):
    # The adversarial draw brings two store slots, pointer-pop companions,
    # partial last rounds and zero store forwarding; the tile draw brings
    # the kernels a search scores, up to 64 rounds deep.
    spec, options = drawn
    slots = slots_for(spec)
    for overlap in (False, True):
        dag = build_microkernel_dag(spec, overlap_clusters=overlap, **options)
        ref = reference_build(spec, overlap_clusters=overlap, **options)
        assert [tuple(ins) for ins in dag] == [tuple(ins) for ins in ref]
        assert all(type(ins) is Instruction for ins in dag)
        assert_same_schedule(dag, slots)


def random_dense_dag(rng: random.Random) -> tuple[list[Instruction], dict[str, int]]:
    """A dense DAG of no builder's shape, with 1-3 slots per class.

    Position i takes its preds three ways in turn: the tuple object of
    position i - 1, under another slot class and latency; an equal copy of
    an earlier tuple; or a fresh tuple, which repeats an entry every third
    time. Latencies and delays are whole cycles, 0 included; the long
    ones leave idle gaps with several due cycles in them.
    """
    kind_of = {"ld": "vload", "st": "vstore", "vmac": "vmac"}
    slots = {name: rng.randint(1, 3) for name in kind_of}
    delays = (0, 0, 1, 2, 3, 5, 8)
    latencies = (0, 1, 2, 4, 7)
    dag: list[Instruction] = []
    for i in range(rng.randint(1, 40)):
        slot = rng.choice(list(kind_of))
        latency = rng.choice(latencies)
        if i % 3 == 1:
            prev = dag[-1]
            preds = prev.preds
            slot = rng.choice([name for name in kind_of if name != prev.slot])
            latency = rng.choice([x for x in latencies if x != prev.latency])
        elif i % 3 == 2:
            preds = tuple(list(dag[rng.randrange(i)].preds))
        else:
            n_preds = rng.randint(0, min(i, 4))
            preds = [(rng.randrange(i), rng.choice(delays)) for _ in range(n_preds)]
            if preds and i % 9 == 3:
                preds.append(rng.choice(preds))
            preds = tuple(preds)
        dag.append(Instruction(kind_of[slot], slot, latency, preds, rng.randint(0, 2)))
    return dag, slots


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_random_dense_dags_match_reference(seed):
    dag, slots = random_dense_dag(random.Random(seed))
    assert_same_schedule(dag, slots)


def fig3_spec() -> MicrokernelSpec:
    # Single chain, one update, loads: two of the accumulator tile and one of
    # each input operand, all latency 3, on two load slots.
    return MicrokernelSpec(
        chains=1,
        n_accum=1,
        r_load=2,
        u_ld=2,
        load_classes=(LoadClass(3, 2), LoadClass(3, 1), LoadClass(3, 1)),
        n_clusters=1,
    )


def test_first_vmac_matches_prolog_bound():
    spec = fig3_spec()
    dag = build_microkernel_dag(spec, share_inputs=False)
    assert sum(1 for i in dag if i.kind == "vload") == 4
    assert sum(1 for i in dag if i.kind == "vmac") == 1
    res = schedule(dag, slots_for(spec))
    assert res.phase_times[0] == 4


def test_single_vmac_rate():
    spec = fig3_spec()
    res = schedule(build_microkernel_dag(spec, share_inputs=False), slots_for(spec))
    assert res.vmac_issue_rate == Fraction(1, res.total_cycles)


def test_independent_loads_bandwidth_bound():
    for n in (1, 2, 5, 8):
        dag = [Instruction(kind="vload", slot="ld", latency=1)] * n
        res = schedule(dag, {"ld": 2})
        assert res.total_cycles == -(-n // 2)


def test_saturated_vmacs_full_rate():
    dag = [Instruction(kind="vmac", slot="vmac", latency=3)] * 6
    res = schedule(dag, {"vmac": 1})
    assert res.total_cycles == 6
    assert res.vmac_issue_rate == 1


def test_ii_observed_at_least_one_slot_cycle():
    spec = MicrokernelSpec(n_accum=32, n_clusters=2)
    res = schedule(build_microkernel_dag(spec), slots_for(spec))
    assert res.ii_observed >= 1


def test_empty_dag():
    res = schedule([], {"ld": 1})
    assert res.total_cycles == 0
    assert res.ii_observed is None
    assert issue_cycles([], {"ld": 1}) == []


def test_cycle_rejected():
    # Also every other DAG that is not dense: an unknown pred, a self-loop
    # whose other preds all come earlier in the list, a pred listed later
    # but acyclic, and a builder DAG in shuffled order, whose preds point
    # forward too. The last cases repeat pred tuples, as one object and as
    # equal copies: an earlier valid one beside one that is invalid where it
    # first occurs and valid where it recurs.
    spec = MicrokernelSpec(n_accum=8, n_clusters=2)
    shared = ((0, 1),)
    late = ((3, 1),)
    dags = [
        [Instruction("vload", "ld", 1, ((1, 1),)), Instruction("vload", "ld", 1, ((0, 1),))],
        [Instruction("vload", "ld", 1), Instruction("vload", "ld", 1, ((7, 1),))],
        [Instruction("vload", "ld", 1, ((0, 1),)), Instruction("vload", "ld", 1, ((0, 1),))],
        [Instruction("vload", "ld", 1, ((1, 1),)), Instruction("vload", "ld", 1)],
        shuffle_positions(build_microkernel_dag(spec), random.Random(3)),
    ]
    for recur in (late, tuple(list(late))):
        dags.append([
            Instruction("vload", "ld", 1),
            Instruction("vmac", "vmac", 1, shared),
            Instruction("vload", "ld", 1, late),
            Instruction("vmac", "vmac", 1, tuple(list(shared))),
            Instruction("vload", "ld", 1, recur),
        ])
    for dag in dags:
        with pytest.raises(ConfigError):
            schedule(dag, slots_for(spec))
    # With the invalid first occurrence made valid, the repeats schedule.
    valid = list(dags[-2])
    valid[2] = valid[2]._replace(preds=shared)
    assert_same_schedule(valid, slots_for(spec))


def first_fault(dag, slots):
    """The message for the first fault of a DAG that is not dense, checked
    instruction by instruction in list order: its slot class, then its
    preds. The order the scheduler's column checks must keep."""
    for i, ins in enumerate(dag):
        if slots.get(ins.slot, 0) < 1:
            return f"no slots for class {ins.slot!r}"
        for pid, _ in ins.preds:
            if not 0 <= pid < i:
                return f"instruction {i} depends on id {pid}, not an earlier one"
    return None


def test_first_fault_in_list_order_is_raised():
    ld = ("vload", "ld", 1)
    cases = [
        ([Instruction(*ld), Instruction(*ld, ((5, 1),)), Instruction(*ld)],
         "instruction 1 depends on id 5, not an earlier one"),
        ([Instruction("vload", "nope", 1, ((0, 1),))], "no slots for class 'nope'"),
        ([Instruction(*ld), Instruction(*ld, ((1, 2),)), Instruction("x", "nope", 1)],
         "instruction 1 depends on id 1, not an earlier one"),
        ([Instruction(*ld), Instruction("x", "nope", 1), Instruction(*ld, ((4, 2),))],
         "no slots for class 'nope'"),
        ([Instruction(*ld, ((-1, 1),)), Instruction(*ld, ((-1, 1),))],
         "instruction 0 depends on id -1, not an earlier one"),
        ([Instruction("vstore", "st", 1)], "no slots for class 'st'"),
    ]
    slots = {"ld": 1, "st": 0, "vmac": 1}
    for dag, message in cases:
        assert first_fault(dag, slots) == message
        with pytest.raises(ConfigError) as err:
            schedule(dag, slots)
        assert str(err.value) == message


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_malformed_dense_dags_raise_their_first_fault(seed):
    # One to three faults at random positions: a slot class with no slots,
    # or a pred that is not earlier.
    rng = random.Random(seed)
    dag, slots = random_dense_dag(rng)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(dag))
        if rng.randrange(2):
            dag[i] = dag[i]._replace(slot="none")
        else:
            bad = (rng.choice([i, i + 2, -1]), 1)
            dag[i] = dag[i]._replace(preds=dag[i].preds + (bad,))
    message = first_fault(dag, slots)
    with pytest.raises(ConfigError) as err:
        schedule(dag, slots)
    assert str(err.value) == message


def test_missing_slot_rejected():
    dag = [Instruction(kind="vstore", slot="st", latency=1)]
    with pytest.raises(ConfigError):
        schedule(dag, {"ld": 1})
    with pytest.raises(ConfigError):
        schedule(dag, {"ld": 1, "st": 0})


def test_determinism():
    spec = MicrokernelSpec(n_accum=16, n_clusters=3)
    a = issue_cycles(build_microkernel_dag(spec), slots_for(spec))
    b = issue_cycles(build_microkernel_dag(spec), slots_for(spec))
    assert a == b
    assert schedule(build_microkernel_dag(spec), slots_for(spec)) == schedule(
        build_microkernel_dag(spec), slots_for(spec)
    )


def test_resource_legality():
    rng = random.Random(5)
    for _ in range(20):
        spec, options = random_microkernel_spec(rng)
        assert_same_schedule(build_microkernel_dag(spec, **options), slots_for(spec))


def test_derive_cluster_shape():
    assert derive_cluster_shape(4) == (2, 2)
    assert derive_cluster_shape(6) == (2, 3)
    assert derive_cluster_shape(5) == (1, 5)
    assert derive_cluster_shape(1) == (1, 1)


def test_share_halves_steady_loads():
    # 2x2 cluster with two operands per update: 8 private loads per round
    # drop to 2 row + 2 col shared loads.
    spec = MicrokernelSpec(load_classes=(LoadClass(8, 8),), n_accum=16, n_clusters=1)
    unshared = build_microkernel_dag(spec, share_inputs=False)
    shared = build_microkernel_dag(spec, share_inputs=True)

    def steady_loads(dag):
        loads = sum(1 for i in dag if i.kind == "vload")
        return loads - spec.prolog_load_count * spec.n_clusters

    assert steady_loads(unshared) == 2 * steady_loads(shared)


def test_double_buffer_edges_are_subset():
    # Both builds emit the same instructions in the same order, so a
    # position names the same instruction in each.
    spec = MicrokernelSpec(n_accum=24, n_clusters=2)
    single = build_microkernel_dag(spec, double_buffer=False)
    double = build_microkernel_dag(spec, double_buffer=True)
    assert [i._replace(preds=()) for i in single] == [i._replace(preds=()) for i in double]
    edges_single = {(pid, i, delay) for i, ins in enumerate(single) for pid, delay in ins.preds}
    edges_double = {(pid, i, delay) for i, ins in enumerate(double) for pid, delay in ins.preds}
    assert edges_double < edges_single


def test_sequential_cluster_serialization():
    spec = MicrokernelSpec(n_accum=8, n_clusters=2)
    dag = build_microkernel_dag(spec, overlap_clusters=False)
    cycles = issue_cycles(dag, slots_for(spec))
    last_store_c0 = max(
        c for c, i in zip(cycles, dag) if i.kind == "vstore" and i.group == 0
    )
    first_load_c1 = min(
        c for c, i in zip(cycles, dag) if i.kind == "vload" and i.group == 1
    )
    assert first_load_c1 >= last_store_c0 + spec.l_store


def test_overlap_allows_prefetch():
    spec = MicrokernelSpec(n_accum=8, n_clusters=2)
    seq = schedule(build_microkernel_dag(spec, overlap_clusters=False), slots_for(spec))
    ovl_dag = build_microkernel_dag(spec, overlap_clusters=True)
    ovl = schedule(ovl_dag, slots_for(spec))
    assert ovl.total_cycles <= seq.total_cycles
    ovl_cycles = issue_cycles(ovl_dag, slots_for(spec))
    last_vmac_c0 = max(
        c for c, i in zip(ovl_cycles, ovl_dag) if i.kind == "vmac" and i.group == 0
    )
    first_load_c1 = min(
        c for c, i in zip(ovl_cycles, ovl_dag) if i.kind == "vload" and i.group == 1
    )
    assert first_load_c1 < last_vmac_c0


def test_unaligned_loads_get_pop_companions():
    spec = MicrokernelSpec(
        load_classes=(LoadClass(8, 4), LoadClass(4, 2, unaligned=True)), n_accum=4
    )
    dag = build_microkernel_dag(spec)
    pops = [i for i in dag if i.kind == "vload_pop"]
    assert len(pops) == 2
    cycles = issue_cycles(dag, slots_for(spec))
    for cycle, ins in zip(cycles, dag):
        if ins.kind == "vload" and any(
            dag[pid].kind == "vload_pop" for pid, _ in ins.preds
        ):
            pop_id = next(pid for pid, _ in ins.preds if dag[pid].kind == "vload_pop")
            assert cycle > cycles[pop_id]


def test_builder_validation():
    with pytest.raises(ConfigError):
        build_microkernel_dag(MicrokernelSpec(r_load=1), share_inputs=True)
    with pytest.raises(ConfigError):
        # prolog holds 2 loads but a steady round consumes 8
        build_microkernel_dag(
            MicrokernelSpec(load_classes=(LoadClass(8, 2),), n_accum=16),
            share_inputs=False,
        )


def test_csv_dump():
    spec = fig3_spec()
    dag = build_microkernel_dag(spec)
    text = dump_schedule_csv(spec)
    lines = text.strip().splitlines()
    assert lines[0] == "cycle,slot,id,kind"
    assert len(lines) == len(dag) + 1
    cycles = [int(line.split(",")[0]) for line in lines[1:]]
    assert cycles == sorted(cycles)
    assert cycles == sorted(issue_cycles(dag, slots_for(spec)))


def test_bounds_sound_over_random_specs():
    assert verify_random_specs(120, seed=2024) == []


@settings(max_examples=40)
@given(seed=st.integers(0, 10**9))
def test_bounds_sound_hypothesis(seed):
    spec, options = random_microkernel_spec(random.Random(seed))
    assert check_bounds_hold(spec, options) == []


def test_bounds_hold_when_a_cluster_has_fewer_updates_than_chains():
    # The default kernel at n_accum 1-64 and 1, 2, 4 or 16 clusters. At
    # n_accum 1 and 2 only n_accum of its four chains are live, so the
    # epilog drains n_accum chains and an overlapped cluster boundary costs
    # one II per live chain; charging all four put the bounds above the
    # schedule (t_k 8 reads 288 cycles against a 336-cycle bound).
    beaten = [
        (n_accum, n_clusters)
        for n_accum in range(1, 65)
        for n_clusters in (1, 2, 4, 16)
        if check_bounds_hold(MicrokernelSpec(n_accum=n_accum, n_clusters=n_clusters), {})
    ]
    assert beaten == []


@settings(max_examples=200)
@given(seed=st.integers(0, 10**9), draw=st.sampled_from(SPEC_DRAWS))
def test_each_total_bound_covers_the_phase_bounds(seed, draw):
    # So a schedule beats t_steady or t_epilog only if it beats the total
    # bound of its mode too: check_bounds_hold's phase checks never fire alone.
    b = total_latency(draw(random.Random(seed))[0])
    assert b.t_prolog >= 1 and b.t_epilog >= 1
    phases = b.t_prolog + b.t_steady + b.t_epilog
    assert b.l_total_sequential >= phases and b.l_total_overlapped >= phases


# 64 updates over two chains with a one-cycle MAC pipeline, one-cycle loads
# and one store per chain: loads and recurrences leave room for two VMACs a
# cycle, so the one VMAC slot alone keeps the schedule below the peak.
SLOT_BOUND_KERNEL = microkernel_for_tile(
    TileConfig(8, 8, 512, 16),
    MicrokernelSpec(pipeline_depth=1, u_ld=2, u_st=2, load_classes=(LoadClass(1, 2),),
                    r_load=1, chains=2, l_vmac_to_store=0, l_store=1, n_store=1),
)


@settings(max_examples=150, deadline=None)
@given(drawn=st.one_of(
    *(st.randoms(use_true_random=False).map(spec_draw) for spec_draw in SPEC_DRAWS),
    tile_shaped_spec(),
))
@example(drawn=(SLOT_BOUND_KERNEL, {"share_inputs": False, "double_buffer": True}))
def test_kernel_scores_lie_strictly_between_zero_and_one(drawn):
    # The core issues at most one VMAC per cycle, so neither kernel source
    # reaches the arch peak: the closed form's cluster takes at least
    # n_accum + 1 cycles, and a schedule's last VMAC still has its stores.
    spec, options = drawn
    assert 0 < eff_micro(spec) < 1
    for overlap in (False, True):
        assert 0 < kernel_run(spec, overlap, **options).vmac_issue_rate < 1


@settings(max_examples=80, deadline=None)
@given(
    drawn=st.one_of(
        *(st.randoms(use_true_random=False).map(spec_draw) for spec_draw in SPEC_DRAWS),
        tile_shaped_spec(),
    ),
    overlap=st.booleans(),
)
def test_kernel_run_equals_fresh_schedule(drawn, overlap):
    # The whole record: the sequential shortcut scales every field of one
    # cluster's run, phase_times and instructions included.
    spec, options = drawn
    dag = build_microkernel_dag(spec, overlap_clusters=overlap, **options)
    want = schedule(dag, slots_for(spec))
    first = kernel_run(spec, overlap, **options)
    hits = kernel_run.cache_info().hits
    assert first == want
    assert kernel_run(spec, overlap_clusters=overlap, **options) == want
    assert kernel_run.cache_info().hits == hits + 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), draw=st.sampled_from(SPEC_DRAWS))
def test_sequential_clusters_repeat_one_cluster_schedule(seed, draw):
    # Every instruction of sequential cluster c issues exactly c * T after
    # its cluster-0 twin, T being one cluster's cycles. The adversarial draw
    # often has a MAC pipeline deeper than a chain's store drain.
    spec, options = draw(random.Random(seed))
    n = max(spec.n_clusters, 2)
    spec = spec._replace(n_clusters=n)
    slots = slots_for(spec)
    one_dag = build_microkernel_dag(spec._replace(n_clusters=1), **options)
    one, one_cycles = schedule(one_dag, slots), issue_cycles(one_dag, slots)
    dag = build_microkernel_dag(spec, **options)
    full, full_cycles = schedule(dag, slots), issue_cycles(dag, slots)
    m, period = len(one_dag), one.total_cycles
    assert len(dag) == n * m
    assert full.total_cycles == n * period
    for i, ins in enumerate(dag):
        c, twin = divmod(i, m)
        assert ins.group == c
        assert ins.kind == one_dag[twin].kind
        assert full_cycles[i] == one_cycles[twin] + c * period


def test_one_cluster_modes_share_a_cache_entry():
    spec = MicrokernelSpec(n_accum=16, n_clusters=1)
    kernel_run.cache_clear()
    assert check_bounds_hold(spec, {}) == []
    assert kernel_run.cache_info().misses == 1
    assert kernel_run.cache_info().hits == 1
    assert kernel_run(spec, True) == kernel_run(spec, False)
    assert kernel_run.cache_info().misses == 1


def test_zero_cluster_kernel_has_no_phase_violations():
    # A zero-cluster kernel cannot be built, so the bounds are checked from
    # one cluster up, and one cluster has none.
    with pytest.raises(ConfigError, match=r"^n_clusters must be >= 1, got 0$"):
        kernel_run(MicrokernelSpec()._replace(n_clusters=0))
    assert check_bounds_hold(MicrokernelSpec(n_clusters=1), {}) == []


def test_kernel_run_does_not_cache_builder_errors():
    spec = MicrokernelSpec(r_load=1, u_ld=1, load_classes=(LoadClass(3, 1),))
    for n_clusters in (1, 3):
        for _ in range(2):
            with pytest.raises(ConfigError, match="share_inputs needs r_load >= 2"):
                kernel_run(spec._replace(n_clusters=n_clusters))


def test_search_schedules_each_distinct_kernel_once(monkeypatch):
    problem = ProblemSpec(4096, 4096, 2048)
    prec = PRECISION_PRESETS["config1"]
    searched = explore(SearchSpace(), problem, prec, eff_source="simulated")
    tiles = [tile for tile, _ in searched.entries]
    assert len(tiles) == 167
    built = []
    monkeypatch.setattr(
        schedule_module, "build_microkernel_dag",
        lambda spec, **options: built.append(spec) or build_microkernel_dag(spec, **options),
    )
    kernel_run.cache_clear()
    result = rank(tiles, problem, prec, eff_source="simulated")
    # The tiles make 15 distinct kernels. The four with one cluster (n_accum
    # 8, 16, 32 and 64) are built and scheduled; the 11 with more clusters
    # are scaled from them without a build.
    specs = {microkernel_for_tile(tile) for tile in tiles}
    assert len(specs) == 15
    assert sorted(spec.n_accum for spec in built) == [8, 16, 32, 64]
    assert all(spec.n_clusters == 1 for spec in built)
    assert kernel_run.cache_info().misses == 15
    for tile, est in result.entries:
        spec = microkernel_for_tile(tile)
        direct = schedule(build_microkernel_dag(spec), slots_for(spec))
        assert est.eff_micro == direct.vmac_issue_rate
    # The soundness check's sequential run is the one the search scored; a
    # one-cluster kernel's overlapped run is the same entry again.
    one_cluster = next(t for t in tiles if microkernel_for_tile(t).n_clusters == 1)
    assert check_bounds_hold(microkernel_for_tile(one_cluster), {}) == []
    assert kernel_run.cache_info().misses == 15
    many = next(t for t in tiles if microkernel_for_tile(t).n_clusters > 1)
    assert check_bounds_hold(microkernel_for_tile(many), {}) == []
    assert kernel_run.cache_info().misses == 16


def test_double_buffer_and_overlap_monotone():
    rng = random.Random(81)
    for _ in range(60):
        spec, options = random_microkernel_spec(rng)
        for overlap in (False, True):
            base_opts = dict(options, overlap_clusters=overlap, double_buffer=False)
            base = schedule(build_microkernel_dag(spec, **base_opts), slots_for(spec))
            db = schedule(
                build_microkernel_dag(spec, **dict(base_opts, double_buffer=True)),
                slots_for(spec),
            )
            assert db.total_cycles <= base.total_cycles
        seq_opts = dict(options, overlap_clusters=False)
        seq = schedule(build_microkernel_dag(spec, **seq_opts), slots_for(spec))
        ovl = schedule(
            build_microkernel_dag(spec, **dict(seq_opts, overlap_clusters=True)),
            slots_for(spec),
        )
        assert ovl.total_cycles <= seq.total_cycles


def test_total_includes_store_drain():
    spec = MicrokernelSpec(n_accum=4, n_clusters=1)
    dag = build_microkernel_dag(spec)
    res = schedule(dag, slots_for(spec))
    cycles = issue_cycles(dag, slots_for(spec))
    last_store = max(c for c, i in zip(cycles, dag) if i.kind == "vstore")
    assert res.total_cycles == last_store + spec.l_store
    assert res.total_cycles >= total_latency(spec).l_total_sequential


def test_overlapped_period_need_not_settle_at_two_clusters():
    # Draws 150 and 1052 of random_microkernel_spec(random.Random(5)),
    # scheduled overlapped at 1-6 clusters. Draw 150 repeats a two-cluster
    # period (72, then 71 cycles); draw 1052 steps 9 once, then 8. So
    # total_cycles(n) = total_cycles(1) + (n - 1)·P does not hold on every
    # kernel, and two clusters do not fix the period.
    draw_150 = MicrokernelSpec(
        pipeline_depth=1, u_ld=4, u_st=1,
        load_classes=(LoadClass(9, 40), LoadClass(7, 3, unaligned=True)),
        r_load=8, chains=5, n_accum=35, l_vmac_to_store=4, l_store=1, n_store=3,
    )
    draw_1052 = MicrokernelSpec(
        pipeline_depth=1, u_ld=1, u_st=1, load_classes=(LoadClass(2, 4), LoadClass(8, 4)),
        r_load=2, chains=2, n_accum=2, l_vmac_to_store=2, l_store=3, n_store=3,
    )
    rng = random.Random(5)
    draws = [random_microkernel_spec(rng) for _ in range(1053)]
    cases = [
        (draw_150, {"share_inputs": False, "double_buffer": True}, 150,
         [92, 164, 235, 307, 378, 450]),
        (draw_1052, {"share_inputs": False, "double_buffer": False}, 1052,
         [21, 30, 38, 46, 54, 62]),
    ]
    for spec, options, index, totals in cases:
        drawn, drawn_options = draws[index]
        assert (drawn._replace(n_clusters=1), drawn_options) == (spec, options)
        got = []
        for n in range(1, 7):
            spec_n = spec._replace(n_clusters=n)
            dag = build_microkernel_dag(spec_n, overlap_clusters=True, **options)
            got.append(schedule(dag, slots_for(spec_n)).total_cycles)
        assert got == totals
