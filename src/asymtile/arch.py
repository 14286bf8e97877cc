"""Architecture, precision, and tile-shape domain types.

All byte accounting is exact, so feasibility decisions at the capacity
boundary never hinge on float rounding. The hot closed forms work on integer
numerators over the precision's common byte-cost denominator
(:attr:`PrecisionSpec.cost_numerators`) and build a ``fractions.Fraction``
only for a value they return. Sizes are bytes, dimensions are element counts.

The tile naming follows the asymmetric-buffering scheme: the A operand is
staged in slices of ``t_ma`` rows while the C accumulator tile covers ``t_mc``
rows, with ``rho = t_mc / t_ma`` the asymmetry factor. ``rho == 1`` is the
classic symmetric scheme.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from functools import cached_property
from typing import Any, NamedTuple

KIB = 1024


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


def is_int(value) -> bool:
    """True for an int that is not a bool (JSON ``true`` loads as a bool)."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_int(name: str, value, minimum: int) -> None:
    """Raise ConfigError unless ``value``, called ``name`` in the message, is
    an int of at least ``minimum``. An int in range returns after one test:
    every tile a search builds passes its four dims through here."""
    if type(value) is int and value >= minimum:
        return
    if not is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def require_ints(obj, names, minimum: int) -> None:
    """:func:`require_int` on each named field of ``obj``."""
    for name in names:
        require_int(name, getattr(obj, name), minimum)


def require_bools(obj, names) -> None:
    """Raise ConfigError unless each named field of ``obj`` is a bool."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false, got {value!r}")


def as_byte_cost(value: Any) -> Fraction:
    """Coerce a per-element byte cost to an exact, finite, positive Fraction.

    Accepts int, Fraction, float (floats are binary-exact, so 1.25 means 5/4),
    or a "p/q" string. A cost too large for a float is rejected, because the
    model reports rates as floats.
    """
    if isinstance(value, bool) or not isinstance(value, (int, Fraction, float, str)):
        raise ConfigError(f"byte cost must be numeric, got {value!r}")
    try:
        cost = Fraction(value)
        float(cost)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"bad byte cost {value!r}") from exc
    if cost <= 0:
        raise ConfigError(f"byte cost must be positive, got {value!r}")
    return cost


class CheckedTuple:
    """Base of an input type: list it before the ``typing.NamedTuple`` of the
    type's fields, and give the type a ``__new__`` that checks them. Copies
    are checked too: ``_make``, and so ``_replace``, build through the
    type. A ``__new__`` may name each field, or pass ``*args, **kwargs`` on
    to the NamedTuple's constructor, which takes the defaults declared
    there; either way an argument error names the type."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The NamedTuple's generated constructor reports a missing, extra or
        # unknown argument under its own qualified name.
        cls.__bases__[-1].__new__.__qualname__ = f"{cls.__name__}.__new__"

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _PrecisionFields(NamedTuple):
    byte_cost_a: Fraction
    byte_cost_b: Fraction
    byte_cost_c: Fraction
    accum_label: str


class PrecisionSpec(CheckedTuple, _PrecisionFields):
    """Per-element byte costs for the A, B, and C operands, each coerced by
    :func:`as_byte_cost`.

    ``accum_label`` records the accumulation format for reporting only; it does
    not affect any arithmetic.
    """

    def __new__(cls, byte_cost_a, byte_cost_b, byte_cost_c, accum_label=""):
        costs = (as_byte_cost(byte_cost_a), as_byte_cost(byte_cost_b), as_byte_cost(byte_cost_c))
        if not isinstance(accum_label, str):
            raise ConfigError(f"accum_label must be a string, got {accum_label!r}")
        return tuple.__new__(cls, (*costs, accum_label))

    @cached_property
    def cost_numerators(self) -> tuple[int, int, int, int]:
        """``(a, b, c, den)``: the A, B and C byte costs are ``a/den``,
        ``b/den`` and ``c/den``, with ``den`` the least common multiple of
        their denominators."""
        costs = (self.byte_cost_a, self.byte_cost_b, self.byte_cost_c)
        den = math.lcm(*(cost.denominator for cost in costs))
        a, b, c = (cost.numerator * (den // cost.denominator) for cost in costs)
        return a, b, c, den


# The block-FP format of the BFP16 codec in ``asymtile.gemm``: BFP_BLOCK
# values share one exponent byte, BFP_BYTES_PER_BLOCK bytes per block.
BFP_BLOCK = 8
BFP_BYTES_PER_BLOCK = 9

# Named precision presets. Block-FP (shared-exponent) storage is costed at the
# conventional 1.25 B/elem rate; the "_packed" variant uses the exact packed
# density of the codec's blocks, which is what a byte-true allocator sees.
PRECISION_PRESETS: dict[str, PrecisionSpec] = {
    # BF16 activations and output, block-FP weights.
    "config1": PrecisionSpec(Fraction(2), Fraction(5, 4), Fraction(2), "bf16"),
    # Block-FP everywhere, accumulation stays in the same block format.
    "config2": PrecisionSpec(Fraction(5, 4), Fraction(5, 4), Fraction(5, 4), "bfp16"),
    # config2 with the exact packed block-FP density, 9/8.
    "config2_packed": PrecisionSpec(*[Fraction(BFP_BYTES_PER_BLOCK, BFP_BLOCK)] * 3, "bfp16"),
    # Block-FP storage, BF16 accumulation.
    "config3": PrecisionSpec(Fraction(5, 4), Fraction(5, 4), Fraction(5, 4), "bf16"),
}


class _ArchFields(NamedTuple):
    l1_capacity: int = 63 * KIB
    n_rows: int = 4
    n_cols: int = 8
    peak_macs_per_cycle: int = 512
    clock_hz: float = 1.8e9
    offchip_bw: float = 65e9
    switch_overhead_delta: int = 50
    buffer_multiplier_a: int = 2
    buffer_multiplier_b: int = 2
    buffer_multiplier_c: int = 1


class ArchSpec(CheckedTuple, _ArchFields):
    """Fixed parameters of the target core array.

    Defaults describe a 4x8 grid of VLIW vector cores, each with a 64 KiB L1
    scratchpad of which 63 KiB is usable for tile buffers, a 512-MAC/cycle
    vector unit at 1.8 GHz, and a shared 65 GB/s off-chip link.

    The buffer multipliers encode the staging discipline: A and B slices are
    double buffered (count 2) while the C accumulator tile is single buffered
    (count 1).

    Every field except ``clock_hz`` and ``offchip_bw`` is a count and must
    be an int, at least 1 (``switch_overhead_delta`` at least 0); those two
    are rates and must be finite positive numbers.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_ints(self, (
            "l1_capacity", "n_rows", "n_cols", "peak_macs_per_cycle",
            "buffer_multiplier_a", "buffer_multiplier_b", "buffer_multiplier_c",
        ), 1)
        require_ints(self, ("switch_overhead_delta",), 0)
        for name in ("clock_hz", "offchip_bw"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0 < value <= sys.float_info.max
            ):
                raise ConfigError(f"{name} must be a finite positive number, got {value!r}")
        return self

    @property
    def n_cores(self) -> int:
        """Cores in the grid."""
        return self.n_rows * self.n_cols

    @cached_property
    def peak_flops_per_cycle(self) -> int:
        """Per-core flops per cycle (each MAC is one multiply plus one add)."""
        return 2 * self.peak_macs_per_cycle

    @cached_property
    def peak_core_flops(self) -> float:
        """Per-core peak in flops/s."""
        return self.peak_flops_per_cycle * self.clock_hz

    @cached_property
    def peak_array_flops(self) -> float:
        """Whole-array peak in flops/s."""
        return self.peak_core_flops * self.n_cores

    @property
    def grid_scale(self) -> tuple[int, int, int]:
        """L1 tiles per L2 tile along (m, k, n): cores in a grid row share C
        rows and cores in a grid column share C columns, so the array
        consumes an (n_rows * t_mc) x (n_cols * t_n) output tile per pass."""
        return (self.n_rows, 1, self.n_cols)


DEFAULT_ARCH = ArchSpec()


class _ProblemFields(NamedTuple):
    m: int
    k: int
    n: int


class ProblemSpec(CheckedTuple, _ProblemFields):
    """GEMM problem shape: C[m, n] += A[m, k] * B[k, n]."""

    __slots__ = ()

    def __new__(cls, m, k, n):
        self = tuple.__new__(cls, (m, k, n))
        require_ints(self, cls._fields, 1)
        return self


MICROTILE = 8  # tile granularity: the block edge of the 8x8x8 vector MAC

# The memory boundaries the loop-nest walker counts traffic across.
BOUNDARY_CORE = "core"  # traffic into one core's scratchpad
BOUNDARY_ARRAY = "array"  # traffic from off-chip into the shared cache
BOUNDARIES = (BOUNDARY_CORE, BOUNDARY_ARRAY)


class _TileFields(NamedTuple):
    t_ma: int
    t_mc: int
    t_k: int
    t_n: int


class TileConfig(CheckedTuple, _TileFields):
    """L1 tile shape (t_ma, t_mc, t_k, t_n).

    ``t_ma`` rows of A are staged at a time against a ``t_mc x t_n`` output
    tile accumulated over reduction slices of depth ``t_k``. All dims must be
    positive multiples of :data:`MICROTILE`, t_ma must divide t_mc, and
    t_mc >= t_ma.

    A field read costs more than a tuple unpack, so code run once per tile
    reads the dims as ``t_ma, t_mc, t_k, t_n = tile``.
    """

    __slots__ = ()

    def __new__(cls, t_ma, t_mc, t_k, t_n):
        dims = (t_ma, t_mc, t_k, t_n)
        for name, dim in zip(cls._fields, dims):
            require_int(name, dim, 1)
        for name, dim in zip(cls._fields, dims):
            if dim % MICROTILE != 0:
                raise ConfigError(f"tile dim {name}={dim} is not a multiple of {MICROTILE}")
        if t_mc < t_ma:
            raise ConfigError(f"t_mc={t_mc} must be >= t_ma={t_ma}")
        if t_mc % t_ma != 0:
            raise ConfigError(f"t_ma={t_ma} must divide t_mc={t_mc} exactly")
        return tuple.__new__(cls, dims)

    @property
    def rho(self) -> int:
        """Buffering asymmetry factor t_mc / t_ma (1 means symmetric)."""
        return self[1] // self[0]

    def as_tuple(self) -> tuple[int, int, int, int]:
        return tuple(self)


def c_tile_buffers(
    t_mc: int, t_k: int, t_n: int, prec: PrecisionSpec, arch: ArchSpec = DEFAULT_ARCH
) -> tuple[int, int, int, int]:
    """``(a_row, n_bc, den, max_t_ma)`` for the C tile ``(t_mc, t_k, t_n)``,
    the capacity rule in one place.

    L1 holds ``buffer_multiplier_a`` copies of the ``t_ma x t_k`` A slice,
    ``buffer_multiplier_b`` copies of the ``t_k x t_n`` B slice and
    ``buffer_multiplier_c`` copies of the ``t_mc x t_n`` C tile, each at
    its operand's byte cost. Over the precision's common denominator
    ``den`` that is ``(a_row * t_ma + n_bc) / den`` bytes, with ``a_row``
    the A numerator per staged row and ``n_bc`` the B and C numerators.
    The footprint, the ceiling of that, is at most ``l1_capacity`` exactly
    when the numerator is at most ``l1_capacity * den``, i.e. when ``t_ma
    <= max_t_ma = (l1_capacity * den - n_bc) // a_row``. ``max_t_ma`` is
    negative when B and C alone overflow L1."""
    a, b, c, den = prec.cost_numerators
    a_row = arch.buffer_multiplier_a * a * t_k
    n_bc = (arch.buffer_multiplier_b * b * t_k + arch.buffer_multiplier_c * c * t_mc) * t_n
    return a_row, n_bc, den, (arch.l1_capacity * den - n_bc) // a_row


def footprint_bytes(a_row: int, n_bc: int, den: int, t_ma: int) -> int:
    """Whole L1 bytes of the tile that stages ``t_ma`` rows of A, from its C
    tile's :func:`c_tile_buffers`: the numerators' sum over ``den``, rounded
    up."""
    return -(-(a_row * t_ma + n_bc) // den)


def buffer_footprint(tile: TileConfig, prec: PrecisionSpec, arch: ArchSpec = DEFAULT_ARCH) -> int:
    """Exact L1 bytes needed by the tile buffers (:func:`c_tile_buffers`),
    rounded up to whole bytes. The sum and the ceiling are taken on the
    integer numerators, so no Fraction is built."""
    a_row, n_bc, den, _ = c_tile_buffers(tile.t_mc, tile.t_k, tile.t_n, prec, arch)
    return footprint_bytes(a_row, n_bc, den, tile.t_ma)


def require_divides(problem: ProblemSpec, sizes: tuple[int, int, int], what: str) -> None:
    """Raise ConfigError unless the (m, k, n) ``sizes`` of a ``what`` tile
    divide the problem's dims; a pass (once per ranked tile) builds nothing."""
    t_m, t_k, t_n = sizes
    if problem.m % t_m or problem.k % t_k or problem.n % t_n:
        for name, dim, size in zip("mkn", (problem.m, problem.k, problem.n), sizes):
            if dim % size:
                raise ConfigError(f"problem dim {name}={dim} is not divisible by its {what} {size}")


def check_feasible(tile: TileConfig, prec: PrecisionSpec, arch: ArchSpec = DEFAULT_ARCH) -> bool:
    """True when the tile's buffers fit the L1 capacity (boundary inclusive):
    its ``t_ma`` is at most its C tile's ``max_t_ma`` (:func:`c_tile_buffers`)."""
    return tile.t_ma <= c_tile_buffers(tile.t_mc, tile.t_k, tile.t_n, prec, arch)[3]


def derive_l2_tiles(tile: TileConfig, arch: ArchSpec = DEFAULT_ARCH) -> tuple[int, int, int]:
    """Effective (t_m, t_k, t_n) tile at the L2 boundary: each L1 dim times
    its factor in :attr:`ArchSpec.grid_scale`."""
    s_m, s_k, s_n = arch.grid_scale
    _, t_mc, t_k, t_n = tile
    return (s_m * t_mc, s_k * t_k, s_n * t_n)


# -- config-document loading -------------------------------------------------

def from_section(cls, data, section: str, exclude=()):
    """Build ``cls`` from the JSON object ``data`` of config section
    ``section``; missing keys keep their defaults.

    The keys allowed are the field names of ``cls`` not in ``exclude``: its
    ``_fields`` for a NamedTuple input, its dataclass fields otherwise.
    Only a dataclass (``search.SearchSpace``) imports ``dataclasses``, so
    a command that reads no search section never loads it. Field values
    are checked by ``cls`` itself; a missing required key or a value
    ``cls`` cannot take is reported with the ``TypeError`` it raised.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{section!r} section must be an object")
    if issubclass(cls, CheckedTuple):
        names = cls._fields
    else:
        from dataclasses import fields

        names = [f.name for f in fields(cls)]
    allowed = set(names) - set(exclude)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in section {section!r}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"bad {section!r} section: {exc}") from exc


def arch_from_dict(data: dict) -> ArchSpec:
    """Build an ArchSpec from a JSON-style dict; missing keys keep defaults."""
    return from_section(ArchSpec, data, "arch")


def problem_from_value(value) -> ProblemSpec:
    """Parse a problem from {"m":..,"k":..,"n":..} or an "MxKxN" string."""
    if isinstance(value, str):
        parts = value.lower().split("x")
        if len(parts) != 3:
            raise ConfigError(f"problem {value!r} is not of the form MxKxN")
        try:
            m, k, n = (int(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"problem {value!r} is not of the form MxKxN") from exc
        return ProblemSpec(m, k, n)
    if isinstance(value, dict):
        return from_section(ProblemSpec, value, "problem")
    raise ConfigError(f"cannot parse problem from {value!r}")


def tile_from_value(value) -> TileConfig:
    """Parse a tile from a [t_ma, t_mc, t_k, t_n] list, a "t_ma,t_mc,t_k,t_n"
    string or a field dict."""
    if isinstance(value, str):
        try:
            value = [int(v) for v in value.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad tile entry in {value!r}") from exc
    if isinstance(value, (list, tuple)):
        if len(value) != 4:
            raise ConfigError("tile must have exactly 4 entries: t_ma,t_mc,t_k,t_n")
        return TileConfig(*value)
    if isinstance(value, dict):
        return from_section(TileConfig, value, "tile")
    raise ConfigError(f"cannot parse tile from {value!r}")


def precision_from_value(value) -> PrecisionSpec:
    """Parse a precision from a preset name, a byte-cost dict, or that dict
    written as an inline JSON string."""
    if isinstance(value, str) and value.lstrip().startswith("{"):
        try:
            value = json.loads(value)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"bad inline precision spec: {exc}") from exc
    if isinstance(value, str):
        try:
            return PRECISION_PRESETS[value]
        except KeyError:
            known = ", ".join(sorted(PRECISION_PRESETS))
            raise ConfigError(f"unknown precision preset {value!r} (known: {known})") from None
    if isinstance(value, dict):
        return from_section(PrecisionSpec, value, "precision")
    raise ConfigError(f"cannot parse precision from {value!r}")
