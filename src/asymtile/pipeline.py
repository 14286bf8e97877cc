"""Analytical lower bounds for VLIW microkernel latency, and the
efficiency they imply.

The microkernel accumulates an output register tile through chains of
multiply-accumulate (VMAC) instructions. Its latency decomposes into a prolog
(first operand loads), a steady state paced by an initiation interval, and an
epilog (drain accumulators to stores). One helper works these phases out
once per spec, with one cluster's cycle total; :func:`total_latency`
derives the whole-kernel bounds from them, and :func:`eff_micro` the
modeled efficiency from the same total. Every bound is a lower bound on
the cycles a real schedule needs; the constructive scheduler in
``asymtile.schedule`` supplies the matching upper side.

Cycle quantities stay exact. The initiation interval is a rational with
denominator ``chains``, so every bound is worked out on integer numerators
over ``chains``, and rounding up is applied once at the end of a bound,
never per term (rounding per term could overshoot a real schedule). Every
ceiling is an integer ceiling division, ``-(-a // b)``, never a float
division, so the bounds are exact for counts of any size; a ``Fraction`` is
built only for the two rational results, the initiation interval and the
efficiency.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from asymtile.arch import (
    MICROTILE,
    CheckedTuple,
    ConfigError,
    TileConfig,
    from_section,
    require_bools,
    require_ints,
)

# Output elements produced per chain cluster (an 8x8 register tile per chain,
# C chains per cluster).
MICROTILE_OUT = MICROTILE * MICROTILE
# Accumulator registers of the core: no kernel interleaves more chains.
ACCUM_REGS = 5
# Distinct (base, n_accum, n_clusters) shapes kept by shaped_spec. A search
# of the full grid shapes a few hundred; random soundness specs never repeat.
SHAPED_SPEC_CACHE_SIZE = 1024


class _LoadClassFields(NamedTuple):
    latency: int
    count: int
    unaligned: bool


class LoadClass(CheckedTuple, _LoadClassFields):
    """A group of operand loads with a common issue-to-ready latency.

    ``unaligned`` marks loads that need a preceding pointer-pop companion
    instruction; the analytical bounds ignore it (it only adds work, never
    removes any), the DAG builder materializes it.
    """

    __slots__ = ()

    def __new__(cls, latency, count, unaligned=False):
        self = tuple.__new__(cls, (latency, count, unaligned))
        require_ints(self, ("latency", "count"), 1)
        require_bools(self, ("unaligned",))
        return self


class _MicrokernelFields(NamedTuple):
    pipeline_depth: int = 3
    u_ld: int = 2
    u_st: int = 1
    load_classes: tuple[LoadClass, ...] = (LoadClass(latency=8, count=4),)
    r_load: int = 2
    chains: int = 4
    n_accum: int = 8
    n_clusters: int = 1
    l_vmac_to_store: int = 6
    l_store: int = 2
    n_store: int = 2


class MicrokernelSpec(CheckedTuple, _MicrokernelFields):
    """Microkernel shape and machine parameters.

    Defaults describe the target core's block-FP kernel: a 3-deep MAC
    pipeline, two load slots, one store slot, four interleaved accumulation
    chains sharing operands in a 2x2 cluster (two loads per VMAC before
    sharing), 8-cycle operand loads, and a two-instruction store path.
    Every field except ``load_classes`` must be an int, at least 1
    (``l_vmac_to_store`` at least 0), and ``chains`` at most ACCUM_REGS. The
    core's one VMAC slot (the arch's peak of one 8x8x8 VMAC a cycle) has no field.
    ``load_classes`` may be given as any iterable; it is kept as a tuple.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        load_classes = tuple(self.load_classes)
        if load_classes is not self.load_classes:
            self = super().__new__(cls, **{**self._asdict(), "load_classes": load_classes})
        if not self.load_classes or not all(
            isinstance(c, LoadClass) for c in self.load_classes
        ):
            raise ConfigError("load_classes must be a nonempty list of load classes")
        require_ints(self, ("pipeline_depth", "u_ld", "u_st", "r_load", "chains", "n_accum",
                            "n_clusters", "l_store", "n_store"), 1)
        require_ints(self, ("l_vmac_to_store",), 0)
        if self.chains > ACCUM_REGS:
            raise ConfigError(f"chains={self.chains} exceeds accum_regs={ACCUM_REGS}")
        return self

    @property
    def prolog_load_count(self) -> int:
        return sum(c.count for c in self.load_classes)


DEFAULT_MICROKERNEL = MicrokernelSpec()


class KernelShapeError(ConfigError):
    """:func:`microkernel_for_tile` cannot shape a kernel to a tile, or
    :func:`asymtile.schedule.build_microkernel_dag` cannot build the result."""


class LatencyBounds(NamedTuple):
    """All phase and total bounds for one microkernel spec."""

    t_prolog: int
    ii_parallel: Fraction
    t_steady: int
    t_epilog: int
    l_total_sequential: int
    l_total_overlapped: int


def prolog_bound(classes: Iterable[LoadClass], u_ld: int) -> int:
    """Earliest cycle all prolog operands can be ready.

    With classes sorted by descending latency and S_(i) the cumulative load
    count through class i, no schedule beats
    max_i(latency_(i) + ceil(S_(i) / u_ld) - 1): the S_(i) longest-latency
    loads cannot all issue before cycle ceil(S_(i)/u_ld) - 1, and the last of
    them still waits its own latency.
    """
    ordered = sorted(classes, key=lambda c: c.latency, reverse=True)
    if not ordered:
        raise ConfigError("load_classes must be nonempty")
    best = 0
    cum = 0
    for cls in ordered:
        cum += cls.count
        ready = cls.latency - (-cum // u_ld) - 1
        if ready > best:
            best = ready
    return best


def _ii_numerator(spec: MicrokernelSpec) -> int:
    """The parallel-chain initiation interval, in cycles per VMAC, times C.

    Interleaving C chains hides up to C-1 cycles of the accumulator RAW
    distance, and the cluster's per-step loads amortize over C VMACs: the
    II is raw / C with raw = max(P + 1 - C, ceil(r_load / u_ld)), floored at
    one cycle since the one VMAC slot issues at most one VMAC per cycle, so
    this returns max(raw, C). :func:`total_latency` reports the II as
    ``ii_parallel``.
    """
    raw = max(spec.pipeline_depth + 1 - spec.chains, -(-spec.r_load // spec.u_ld))
    return max(raw, spec.chains)


def epilog_bound(spec: MicrokernelSpec) -> int:
    """Cycles to drain one cluster after its last accumulator update.

    One chain needs the VMAC-to-store forwarding latency plus its store
    sequence; the other live chains' drains pipeline one cycle apart. A
    cluster of n_accum < C updates leaves only n_accum chains live.
    """
    one_chain = spec.l_vmac_to_store + spec.l_store + spec.n_store - 1
    return one_chain + min(spec.chains, spec.n_accum) - 1


def _cluster_phases(spec: MicrokernelSpec) -> tuple[int, int, int, int, int]:
    """One cluster's phases: the prolog bound, the II numerator, the epilog
    bound, and the steady state and the whole cluster in cycles times
    ``chains``.

    One cluster issues n_accum updates in prolog + II * (n_accum - chains)
    + epilog cycles, the steady term clamped at zero. The II is ``ii /
    chains`` for an integer ``ii``, so the steady state and the cluster
    total are integer numerators over ``chains``.
    """
    chains, n_accum = spec.chains, spec.n_accum
    t_prolog = prolog_bound(spec.load_classes, spec.u_ld)
    ii = _ii_numerator(spec)
    t_epilog = epilog_bound(spec)
    steady = ii * (n_accum - chains) if n_accum > chains else 0
    return t_prolog, ii, t_epilog, steady, (t_prolog + t_epilog) * chains + steady


def total_latency(spec: MicrokernelSpec) -> LatencyBounds:
    """Work out the phase bounds of ``spec`` once and aggregate them.

    Sequential clusters pay all three phases of :func:`_cluster_phases`
    each. Overlapped clusters hide each inner cluster's prolog and epilog
    behind its neighbors' steady states, paying II per live chain, II *
    min(C, n_accum), per cluster boundary instead; the overlapped figure is
    capped at the sequential one, which any execution can fall back to.

    Each total is an integer numerator over ``chains``, rounded up once by
    an integer ceiling division; only ``ii_parallel`` is a Fraction.
    """
    chains, n_accum, n_c = spec.chains, spec.n_accum, spec.n_clusters
    t_prolog, ii, t_epilog, steady, cluster = _cluster_phases(spec)
    seq = -(-cluster * n_c // chains)
    live = chains if chains < n_accum else n_accum
    ovl = -(-(cluster - steady + (steady + ii * live) * n_c) // chains)
    return LatencyBounds(
        t_prolog=t_prolog,
        ii_parallel=Fraction(ii, chains),
        t_steady=-(-steady // chains),
        t_epilog=t_epilog,
        l_total_sequential=seq,
        l_total_overlapped=ovl if ovl < seq else seq,
    )


def eff_micro(spec: MicrokernelSpec) -> Fraction:
    """Modeled VMAC issue efficiency of the microkernel: n_accum over one
    cluster's exact phase total from :func:`_cluster_phases`. Clusters
    repeat the pattern, so the cluster count cancels. It is below 1: a
    cluster of n updates takes at least n + 1 cycles, as the prolog is at
    least one cycle, the II at least one and the epilog at least one cycle
    per live chain."""
    return Fraction(spec.n_accum * spec.chains, _cluster_phases(spec)[4])


def microkernel_for_tile(tile: TileConfig, base: MicrokernelSpec = DEFAULT_MICROKERNEL) -> MicrokernelSpec:
    """Instantiate a microkernel spec for a tile shape.

    Each accumulator update (one 8x8x8 VMAC) covers MICROTILE reduction
    elements, so n_accum = t_k / MICROTILE; each cluster produces
    MICROTILE_OUT * chains output elements, so
    n_clusters = t_ma * t_n / (MICROTILE_OUT * chains), which must be a
    whole number (else a :class:`KernelShapeError`, checked before the
    memo of :func:`shaped_spec` is read). A repeated call returns the
    memoised spec object.
    """
    per_cluster = MICROTILE_OUT * base.chains
    if (tile.t_ma * tile.t_n) % per_cluster != 0:
        raise KernelShapeError(
            f"t_ma*t_n={tile.t_ma * tile.t_n} must be a multiple of {per_cluster}"
        )
    return shaped_spec(base, tile.t_k // MICROTILE, (tile.t_ma * tile.t_n) // per_cluster)


@lru_cache(maxsize=SHAPED_SPEC_CACHE_SIZE)
def shaped_spec(base: MicrokernelSpec, n_accum: int, n_clusters: int) -> MicrokernelSpec:
    """``base`` with its ``n_accum`` and ``n_clusters`` replaced, validated
    as any spec is.

    Memoised per process on its arguments: specs are immutable, so equal
    arguments give equal specs, and each shape is validated once however
    many tiles or schedules ask for it. An invalid shape raises on every
    call; nothing is cached for it.
    """
    return base._replace(n_accum=n_accum, n_clusters=n_clusters)


# -- config-document loading -------------------------------------------------

def _load_class_from_value(value) -> LoadClass:
    if isinstance(value, (list, tuple)):
        if len(value) not in (2, 3):
            raise ConfigError(f"load class {value!r} must be [latency, count]")
        return LoadClass(*value)
    if isinstance(value, dict):
        return from_section(LoadClass, value, "load_classes")
    raise ConfigError(f"cannot parse load class from {value!r}")


def microkernel_from_dict(data: dict) -> MicrokernelSpec:
    """Build a MicrokernelSpec from a JSON-style dict; unknown keys rejected.
    ``load_classes`` entries are [latency, count(, unaligned)] lists or
    field dicts."""
    if isinstance(data, dict) and isinstance(data.get("load_classes"), list):
        data = {**data, "load_classes": [_load_class_from_value(v) for v in data["load_classes"]]}
    return from_section(MicrokernelSpec, data, "microkernel")
