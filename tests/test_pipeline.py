import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymtile.arch import ConfigError, TileConfig
from asymtile.pipeline import (
    MICROTILE_OUT,
    KernelShapeError,
    LatencyBounds,
    LoadClass,
    MicrokernelSpec,
    eff_micro,
    epilog_bound,
    microkernel_for_tile,
    microkernel_from_dict,
    prolog_bound,
    shaped_spec,
    total_latency,
)
from asymtile.schedule import random_microkernel_spec
from conftest import adversarial_microkernel_spec


def mk(**kw) -> MicrokernelSpec:
    return MicrokernelSpec(**kw)


# -- prolog ------------------------------------------------------------------

def test_prolog_two_slot_four_loads():
    classes = [LoadClass(3, 2), LoadClass(3, 1), LoadClass(3, 1)]
    assert prolog_bound(classes, u_ld=2) == 4


def test_prolog_single_load_latency_bound():
    assert prolog_bound([LoadClass(5, 1)], u_ld=2) == 5


def test_prolog_mixed_latencies():
    # max(8 + ceil(4/2) - 1, 2 + ceil(8/2) - 1) = max(9, 5)
    assert prolog_bound([LoadClass(8, 4), LoadClass(2, 4)], u_ld=2) == 9


def test_ceilings_are_exact_above_two_to_the_53():
    # 2**53 + 3 and 2**53 + 1 are not floats: a float division rounds the
    # first up and the second down, one cycle off either way.
    for exact in (2**53 + 3, 2**53 + 1):
        assert prolog_bound([LoadClass(1, 3 * exact)], 3) == exact
        assert total_latency(mk(r_load=3 * exact, u_ld=3, chains=1)).ii_parallel == exact


def test_prolog_empty_rejected():
    with pytest.raises(ConfigError):
        prolog_bound([], u_ld=2)


@given(
    classes=st.lists(
        st.builds(LoadClass, latency=st.integers(1, 12), count=st.integers(1, 6)),
        min_size=1,
        max_size=5,
    ),
    u_ld=st.integers(1, 4),
    seed=st.randoms(),
)
def test_prolog_permutation_invariant_and_monotone(classes, u_ld, seed):
    base = prolog_bound(classes, u_ld)
    shuffled = list(classes)
    seed.shuffle(shuffled)
    assert prolog_bound(shuffled, u_ld) == base
    bigger = [LoadClass(c.latency + 1, c.count + 1) for c in classes]
    assert prolog_bound(bigger, u_ld) >= base


# -- initiation intervals ----------------------------------------------------

def ii(spec: MicrokernelSpec) -> Fraction:
    return total_latency(spec).ii_parallel


def test_ii_single_chain():
    # One chain hides no RAW cycles: max(3 + 1 - 1, ceil(4 / 2)) / 1 = 3.
    spec = mk(pipeline_depth=3, r_load=4, u_ld=2, chains=1)
    assert ii(spec) == 3


def test_ii_three_chains_clamped():
    # max(3 + 1 - 3, ceil(2 / 2)) / 3 = 1/3, floored at one cycle.
    spec = mk(pipeline_depth=3, r_load=2, u_ld=2, chains=3)
    assert ii(spec) == 1


def test_ii_four_chains_clamped():
    # max(3 + 1 - 4, ceil(4 / 2)) / 4 = 1/2, floored at one cycle.
    spec = mk(pipeline_depth=3, r_load=4, u_ld=2, chains=4)
    assert ii(spec) == 1


@given(
    p=st.integers(1, 8),
    r=st.integers(1, 8),
    u=st.integers(1, 4),
    c=st.integers(1, 5),
)
def test_ii_raw_monotonicity(p, r, u, c):
    spec = mk(pipeline_depth=p, r_load=r, u_ld=u, chains=c)
    base = ii(spec)
    assert base >= 1
    if c > 1:
        assert ii(mk(pipeline_depth=p, r_load=r, u_ld=u, chains=c - 1)) >= base
    assert ii(mk(pipeline_depth=p + 1, r_load=r, u_ld=u, chains=c)) >= base
    assert ii(mk(pipeline_depth=p, r_load=r + 1, u_ld=u, chains=c)) >= base


# -- steady and epilog -------------------------------------------------------

def test_steady_examples():
    assert total_latency(mk(n_accum=8, chains=4)).t_steady == 4
    assert total_latency(mk(n_accum=4, chains=4)).t_steady == 0
    # II max(9 + 1 - 4, ceil(2/2)) / 4 = 3/2, above the one-cycle floor
    b = total_latency(mk(pipeline_depth=9, n_accum=16, chains=4))
    assert b.ii_parallel == Fraction(3, 2)
    assert b.t_steady == 18


def test_epilog_examples():
    assert epilog_bound(mk(l_vmac_to_store=6, l_store=2, n_store=2, chains=1)) == 9
    assert epilog_bound(mk(l_vmac_to_store=6, l_store=2, n_store=2, chains=4)) == 12
    assert epilog_bound(mk(l_vmac_to_store=0, l_store=1, n_store=1, chains=1)) == 1
    # Two updates over four chains leave two chains to drain.
    assert epilog_bound(mk(l_vmac_to_store=6, l_store=2, n_store=2, chains=4, n_accum=2)) == 10


# -- totals ------------------------------------------------------------------

def eight_cluster_spec() -> MicrokernelSpec:
    # prolog 8 + ceil(6/2) - 1 = 10; epilog (6+2+2-1) + 3 = 12; raw II
    # max(3+1-4, ceil(4/2))/4 = 1/2 floors at 1.
    return mk(
        pipeline_depth=3,
        u_ld=2,
        load_classes=(LoadClass(8, 6),),
        r_load=4,
        chains=4,
        n_accum=8,
        n_clusters=8,
    )


def test_total_latency_reference():
    b = total_latency(eight_cluster_spec())
    assert b.t_prolog == 10
    assert b.ii_parallel == 1
    assert b.t_steady == 4
    assert b.t_epilog == 12
    assert b.l_total_sequential == (10 + 4 + 12) * 8
    assert b.l_total_sequential == 208
    assert b.l_total_overlapped == 10 + (4 + 4) * 8 + 12
    assert b.l_total_overlapped == 86


def test_total_latency_zero_clusters():
    # A kernel has at least one cluster, so total_latency never sees zero:
    # the spec rejects it, also when copied from a valid one.
    for build in (lambda: mk(n_clusters=0), lambda: mk()._replace(n_clusters=0)):
        with pytest.raises(ConfigError, match=r"^n_clusters must be >= 1, got 0$"):
            total_latency(build())
    b = total_latency(mk(n_clusters=1))
    assert b.l_total_sequential == b.t_prolog + b.t_steady + b.t_epilog


def test_total_latency_single_cluster_modes_agree_on_order():
    b = total_latency(mk(n_clusters=1))
    assert b.l_total_overlapped <= b.l_total_sequential


@given(
    p=st.integers(1, 6),
    lat=st.integers(1, 10),
    n_loads=st.integers(1, 8),
    r=st.sampled_from([2, 4, 6]),
    chains=st.integers(1, 5),
    n_accum=st.integers(1, 32),
    n_clusters=st.integers(1, 16),
)
def test_overlapped_never_exceeds_sequential(p, lat, n_loads, r, chains, n_accum, n_clusters):
    spec = mk(
        pipeline_depth=p,
        load_classes=(LoadClass(lat, n_loads),),
        r_load=r,
        chains=chains,
        n_accum=n_accum,
        n_clusters=n_clusters,
        l_vmac_to_store=p,
    )
    b = total_latency(spec)
    assert 0 < b.l_total_overlapped <= b.l_total_sequential


def reference_phases(spec: MicrokernelSpec) -> tuple[int, Fraction, Fraction, int]:
    """One cluster's prolog, II, exact steady state and epilog by the
    Fraction formula, each ceiling taken exactly (``math.ceil`` of a
    Fraction)."""
    t_prolog = 0
    cum = 0
    for cls in sorted(spec.load_classes, key=lambda c: c.latency, reverse=True):
        cum += cls.count
        t_prolog = max(t_prolog, cls.latency + math.ceil(Fraction(cum, spec.u_ld)) - 1)
    raw = max(spec.pipeline_depth + 1 - spec.chains, math.ceil(Fraction(spec.r_load, spec.u_ld)))
    ii_par = max(Fraction(raw, spec.chains), Fraction(1))
    steady_exact = ii_par * max(0, spec.n_accum - spec.chains)
    live = min(spec.chains, spec.n_accum)
    t_epilog = spec.l_vmac_to_store + spec.l_store + spec.n_store - 1 + live - 1
    return t_prolog, ii_par, steady_exact, t_epilog


def reference_total_latency(spec: MicrokernelSpec) -> LatencyBounds:
    """The Fraction formula ``total_latency`` replaced: the specification
    the integer version must meet."""
    t_prolog, ii_par, steady_exact, t_epilog = reference_phases(spec)
    live = min(spec.chains, spec.n_accum)
    cluster = t_prolog + steady_exact + t_epilog
    seq = math.ceil(cluster * spec.n_clusters)
    ovl_exact = t_prolog + (steady_exact + ii_par * live) * spec.n_clusters + t_epilog
    return LatencyBounds(
        t_prolog=t_prolog,
        ii_parallel=ii_par,
        t_steady=math.ceil(steady_exact),
        t_epilog=t_epilog,
        l_total_sequential=seq,
        l_total_overlapped=min(math.ceil(ovl_exact), seq),
    )


def reference_eff_micro(spec: MicrokernelSpec) -> Fraction:
    """n_accum over one cluster's exact cycles by the Fraction formula."""
    t_prolog, _, steady_exact, t_epilog = reference_phases(spec)
    return Fraction(spec.n_accum) / (t_prolog + steady_exact + t_epilog)


# Small counts, and counts no float holds exactly.
COUNTS = st.integers(1, 16) | st.integers(2**53, 2**64)


@st.composite
def huge_count_spec(draw) -> MicrokernelSpec:
    classes = tuple(
        LoadClass(draw(COUNTS), draw(COUNTS), draw(st.booleans()))
        for _ in range(draw(st.integers(1, 3)))
    )
    fields = ("pipeline_depth", "u_ld", "u_st", "r_load", "n_accum", "n_clusters",
              "l_store", "n_store")
    return mk(
        load_classes=classes,
        chains=draw(st.integers(1, 5)),
        l_vmac_to_store=draw(st.just(0) | COUNTS),
        **{name: draw(COUNTS) for name in fields},
    )


@settings(max_examples=300)
@given(spec=st.one_of(
    *(st.randoms(use_true_random=False).map(lambda rng, d=spec_draw: d(rng)[0])
      for spec_draw in (random_microkernel_spec, adversarial_microkernel_spec)),
    huge_count_spec(),
))
def test_total_latency_equals_the_fraction_formula(spec):
    got, want = total_latency(spec), reference_total_latency(spec)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


# -- efficiency --------------------------------------------------------------

def test_eff_micro_reference_phases():
    # 8 updates per cluster over prolog 10 + steady 4 + epilog 12 cycles.
    spec = eight_cluster_spec()
    assert eff_micro(spec) == Fraction(8, 26)
    # The steady term is exact, not rounded up: a 9-deep pipeline makes the
    # II 3/2, so 7 updates take prolog 9 + steady 9/2 + epilog 12 cycles,
    # 14/51 where rounding the steady term would give 7/26.
    deep = mk(pipeline_depth=9, chains=4, n_accum=7)
    b = total_latency(deep)
    assert (b.t_prolog, b.ii_parallel, b.t_steady, b.t_epilog) == (9, Fraction(3, 2), 5, 12)
    assert eff_micro(deep) == Fraction(7) / (9 + Fraction(9, 2) + 12) == Fraction(14, 51)


@settings(max_examples=200)
@given(spec=st.one_of(
    *(st.randoms(use_true_random=False).map(lambda rng, d=spec_draw: d(rng)[0])
      for spec_draw in (random_microkernel_spec, adversarial_microkernel_spec)),
    huge_count_spec(),
))
def test_eff_micro_equals_the_fraction_formula(spec):
    got = eff_micro(spec)
    assert type(got) is Fraction
    assert got == reference_eff_micro(spec)


def test_eff_micro_saturates():
    spec = mk(n_accum=4096, chains=4, r_load=2)
    assert ii(spec) == 1
    assert eff_micro(spec) > Fraction(99, 100)


def test_eff_micro_cluster_count_cancels():
    a = eff_micro(mk(n_clusters=1))
    b = eff_micro(mk(n_clusters=64))
    assert a == b


def realistic_specs():
    # Realism constraints keep stores semantically downstream of the MAC pipe
    # and keep prolog load pressure at least one steady step's worth.
    return st.integers(1, 6).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.integers(p, p + 8),  # l_vmac_to_store >= pipeline depth
            st.sampled_from([2, 4]).flatmap(
                lambda u: st.tuples(st.just(u), st.integers(1, 4).map(lambda m: u * m))
            ),
            st.integers(1, 5),
            st.integers(1, 32),
            st.integers(1, 12),
        )
    )


@given(params=realistic_specs())
def test_eff_micro_bounded_by_ii(params):
    p, l_v2s, (u_ld, r_load), chains, n_accum, lat = params
    spec = mk(
        pipeline_depth=p,
        l_vmac_to_store=l_v2s,
        u_ld=u_ld,
        r_load=r_load,
        chains=chains,
        n_accum=n_accum,
        load_classes=(LoadClass(lat, max(1, r_load * chains)),),
    )
    assert 0 < eff_micro(spec) * ii(spec) <= 1


@given(n_accum=st.integers(1, 64))
def test_eff_micro_nondecreasing_in_n_accum(n_accum):
    a = eff_micro(mk(n_accum=n_accum))
    b = eff_micro(mk(n_accum=n_accum + 1))
    assert b >= a


# -- tile derivation and loading ---------------------------------------------

def test_microkernel_for_tile():
    spec = microkernel_for_tile(TileConfig(32, 128, 64, 128))
    assert spec.n_accum == 8
    assert spec.n_clusters == 32 * 128 // (64 * 4)
    assert spec.n_clusters == 16


def test_microkernel_for_tile_rejects_nondivisible():
    with pytest.raises(ConfigError):
        microkernel_for_tile(TileConfig(8, 8, 8, 8))  # 64 outputs, needs 256


@settings(max_examples=150)
@given(
    base=st.randoms(use_true_random=False).map(lambda rng: random_microkernel_spec(rng)[0]),
    t_ma=st.integers(1, 4).map(lambda m: 8 * m),
    rho=st.sampled_from([1, 2, 4]),
    t_k=st.integers(1, 64).map(lambda m: 8 * m),
    t_n=st.integers(1, 10).map(lambda m: 8 * m),
)
def test_microkernel_for_tile_memoises_the_shaped_spec(base, t_ma, rho, t_k, t_n):
    # The shaped spec is the base with two fields replaced, one object per
    # shape; a tile the base's clusters do not divide never reaches the memo.
    tile = TileConfig(t_ma, t_ma * rho, t_k, t_n)
    per_cluster = MICROTILE_OUT * base.chains
    if t_ma * t_n % per_cluster:
        before = shaped_spec.cache_info()
        for _ in range(2):
            with pytest.raises(KernelShapeError, match="must be a multiple of"):
                microkernel_for_tile(tile, base)
        assert shaped_spec.cache_info() == before
    else:
        spec = microkernel_for_tile(tile, base)
        want = base._replace(n_accum=t_k // 8, n_clusters=t_ma * t_n // per_cluster)
        assert spec == want
        assert microkernel_for_tile(tile, base) is spec


def test_microkernel_from_dict():
    spec = microkernel_from_dict(
        {"pipeline_depth": 4, "load_classes": [[8, 4], {"latency": 2, "count": 1}]}
    )
    assert spec.pipeline_depth == 4
    assert spec.load_classes == (LoadClass(8, 4), LoadClass(2, 1))
    with pytest.raises(ConfigError):
        microkernel_from_dict({"pipeline": 4})
    with pytest.raises(ConfigError, match="^chains=6 exceeds accum_regs=5$"):
        microkernel_from_dict({"chains": 6})


def test_spec_validation():
    with pytest.raises(ConfigError):
        mk(chains=0)
    with pytest.raises(ConfigError):
        mk(load_classes=())
    with pytest.raises(ConfigError):
        LoadClass(0, 1)
    for bad in ({"chains": 2.5}, {"n_clusters": 1.5}, {"l_vmac_to_store": 6.0},
                {"pipeline_depth": True}):
        with pytest.raises(ConfigError, match="must be an integer"):
            mk(**bad)
    with pytest.raises(ConfigError, match="must be an integer"):
        LoadClass(8.5, 4)
    with pytest.raises(ConfigError, match="must be an integer"):
        LoadClass(8, False)
    for bad in ("no", 0, None):
        with pytest.raises(ConfigError, match="must be true or false"):
            LoadClass(8, 4, bad)
