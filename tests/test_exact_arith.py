"""The integer closed forms equal the chained-Fraction formulas exactly.

``buffer_footprint``, ``check_feasible``, ``ai_tile``, ``ai_array``,
``eff_core`` and ``calibrated_eff_micro`` compute on integer numerators over
the precision's common byte-cost denominator and build each rational once.
The ``reference_*`` functions below (and ``reference_buffer_terms`` in
``conftest``) are the Fraction formulas they replaced, kept as the
specification the integer forms must equal for every architecture,
precision and tile the config loader accepts; ``reference_perf_array``
composes them into the whole estimate.
"""

import math
from fractions import Fraction

from conftest import reference_buffer_terms
from hypothesis import given, settings
from hypothesis import strategies as st

from asymtile.arch import (
    ArchSpec,
    PrecisionSpec,
    ProblemSpec,
    TileConfig,
    buffer_footprint,
    check_feasible,
)
from asymtile.intensity import ai_array, ai_tile
from asymtile.perf import (
    BOUND_COMPUTE,
    BOUND_MEMORY,
    EFF_MICRO_CALIBRATION,
    PerfEstimate,
    calibrated_eff_micro,
    eff_core,
    perf_array,
)


def reference_buffer_footprint(tile, prec, arch):
    return math.ceil(sum(reference_buffer_terms(tile, prec, arch)))


def reference_check_feasible(tile, prec, arch):
    return reference_buffer_footprint(tile, prec, arch) <= arch.l1_capacity


def reference_ai_tile(t_mc, t_n, k, prec):
    flops = 2 * t_mc * t_n * k
    traffic = (
        prec.byte_cost_a * t_mc * k
        + prec.byte_cost_b * k * t_n
        + prec.byte_cost_c * t_mc * t_n
    )
    return Fraction(flops) / traffic


def reference_ai_array(tile, k, prec, arch):
    return reference_ai_tile(arch.n_rows * tile.t_mc, arch.n_cols * tile.t_n, k, prec)


def reference_eff_core(tile, eff_micro, arch):
    eff = Fraction(eff_micro)
    overhead = Fraction(
        arch.switch_overhead_delta * tile.rho * arch.peak_flops_per_cycle,
        2 * tile.t_mc * tile.t_n * tile.t_k,
    )
    return 1 / (1 / eff + overhead)


def reference_calibrated_eff_micro(t_k):
    points = sorted(EFF_MICRO_CALIBRATION.items())
    if t_k <= points[0][0]:
        return points[0][1]
    if t_k >= points[-1][0]:
        return points[-1][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= t_k <= x1:
            return y0 + (y1 - y0) * Fraction(t_k - x0, x1 - x0)
    raise AssertionError("unreachable")


def reference_perf_array(tile, problem, prec, arch, eff_micro):
    if eff_micro is None:
        eff = reference_calibrated_eff_micro(tile.t_k)
    else:
        eff = Fraction(eff_micro)
    ai = reference_ai_array(tile, problem.k, prec, arch)
    ec = reference_eff_core(tile, eff, arch)
    buffer_bytes = reference_buffer_footprint(tile, prec, arch)
    feasible = reference_check_feasible(tile, prec, arch)
    if feasible:
        memory_bound = float(ai) * arch.offchip_bw
        compute_bound = float(ec) * arch.peak_array_flops
        perf = min(memory_bound, compute_bound)
        bound_kind = BOUND_MEMORY if memory_bound <= compute_bound else BOUND_COMPUTE
    else:
        memory_bound = compute_bound = perf = 0.0
        bound_kind = BOUND_MEMORY
    return PerfEstimate(
        ai_array=ai,
        memory_bound=memory_bound,
        compute_bound=compute_bound,
        eff_micro=eff,
        eff_core=ec,
        perf_array=perf,
        bound_kind=bound_kind,
        buffer_bytes=buffer_bytes,
        feasible=feasible,
    )


@st.composite
def archs(draw):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return ArchSpec(
        l1_capacity=draw(st.integers(1, 1 << 20)),
        n_rows=rows,
        n_cols=cols,
        switch_overhead_delta=draw(st.integers(0, 200)),
        buffer_multiplier_a=draw(st.integers(1, 3)),
        buffer_multiplier_b=draw(st.integers(1, 3)),
        buffer_multiplier_c=draw(st.integers(1, 3)),
    )


# A byte cost as the config loader takes it: an int, a "p/q" string, or a
# float, whose exact binary value can have a denominator up to 2^55 (0.1).
byte_costs = st.one_of(
    st.integers(1, 8),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(1, 512), st.integers(1, 64)),
    st.sampled_from([0.1, 0.3, 1.1, 1.25, 2.2]),
    st.floats(min_value=1 / 64, max_value=8, allow_nan=False, allow_infinity=False),
)
precisions = st.builds(PrecisionSpec, byte_costs, byte_costs, byte_costs)


@st.composite
def tiles(draw):
    t_ma = 8 * draw(st.integers(1, 8))
    return TileConfig(
        t_ma,
        t_ma * draw(st.integers(1, 8)),
        8 * draw(st.integers(1, 64)),
        8 * draw(st.integers(1, 64)),
    )


@settings(max_examples=200)
@given(tile=tiles(), prec=precisions, arch=archs())
def test_buffer_forms_equal_reference(tile, prec, arch):
    footprint = buffer_footprint(tile, prec, arch)
    assert type(footprint) is int
    assert footprint == reference_buffer_footprint(tile, prec, arch)
    assert check_feasible(tile, prec, arch) == reference_check_feasible(tile, prec, arch)


@settings(max_examples=100)
@given(
    tile=tiles(),
    a=byte_costs,
    b=byte_costs,
    extra=st.integers(1, 1000),
    offset=st.sampled_from([Fraction(-1, 8), Fraction(1, 8)]),
    arch=archs(),
)
def test_capacity_boundary_pinned(tile, a, b, extra, offset, arch):
    # Pick the capacity and the C cost so the exact buffer sum is capacity
    # - 1/8 (fits, and the ceiling lands on the capacity) or capacity + 1/8
    # (one byte over).
    a_b = sum(reference_buffer_terms(tile, PrecisionSpec(a, b, 1), arch)[:2])
    capacity = math.ceil(a_b) + extra
    arch = arch._replace(l1_capacity=capacity)
    c_term = capacity + offset - a_b
    prec = PrecisionSpec(a, b, c_term / (arch.buffer_multiplier_c * tile.t_mc * tile.t_n))
    assert sum(reference_buffer_terms(tile, prec, arch)) == capacity + offset
    want = capacity if offset < 0 else capacity + 1
    assert buffer_footprint(tile, prec, arch) == want == reference_buffer_footprint(tile, prec, arch)
    assert check_feasible(tile, prec, arch) is (offset < 0)


@settings(max_examples=200)
@given(tile=tiles(), k=st.integers(1, 1 << 17), prec=precisions, arch=archs())
def test_intensity_equals_reference(tile, k, prec, arch):
    for got, want in (
        (ai_tile(tile.t_mc, tile.t_n, k, prec), reference_ai_tile(tile.t_mc, tile.t_n, k, prec)),
        (ai_array(tile, k, prec, arch), reference_ai_array(tile, k, prec, arch)),
    ):
        assert got.ai == want
        assert type(got.ai) is Fraction


effs = st.one_of(
    st.fractions(min_value=Fraction(1, 10**6), max_value=1, max_denominator=10**6),
    st.floats(min_value=1e-6, max_value=1, allow_nan=False),
    st.sampled_from([1, Fraction(63, 100), 0.63, "41/100"]),
)


@settings(max_examples=200)
@given(tile=tiles(), eff=effs, arch=archs())
def test_eff_core_equals_reference(tile, eff, arch):
    got = eff_core(tile, eff, arch)
    assert type(got) is Fraction
    assert got == reference_eff_core(tile, eff, arch)


@given(t_k=st.integers(1, 1024))
def test_calibrated_eff_micro_equals_reference(t_k):
    want = reference_calibrated_eff_micro(t_k)
    # The second call comes from the memo.
    assert calibrated_eff_micro(t_k) == want
    assert calibrated_eff_micro(t_k) == want


# None resolves from the calibration table; the rest are given directly, as
# a Fraction, a float, an int or a "p/q" string.
perf_effs = st.one_of(
    st.none(),
    effs,
    st.builds(lambda p, q: f"{p}/{q}", st.integers(1, 100), st.integers(100, 1000)),
)


@settings(max_examples=200)
@given(
    tile=tiles(),
    prec=precisions,
    arch=archs(),
    eff=perf_effs,
    multiples=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
)
def test_perf_array_equals_reference(tile, prec, arch, eff, multiples):
    # A problem every array-level tile dim divides.
    s_m, s_k, s_n = arch.grid_scale
    a, b, c = multiples
    problem = ProblemSpec(a * s_m * tile.t_mc, b * s_k * tile.t_k, c * s_n * tile.t_n)
    got = perf_array(tile, problem, prec, arch, eff_micro=eff)
    assert got == reference_perf_array(tile, problem, prec, arch, eff)
    assert all(type(v) is Fraction for v in (got.ai_array, got.eff_micro, got.eff_core))
    if type(eff) is Fraction:
        # A Fraction efficiency is used as given, not rebuilt.
        assert got.eff_micro is eff
