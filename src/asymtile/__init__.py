"""Asymmetric tile buffering models for tiled GEMM on VLIW core arrays.

Module map:

- ``arch``      hardware, precision, problem, and tile descriptions.
- ``intensity`` closed-form arithmetic intensity at the core and array level.
- ``pipeline``  analytic latency bounds for the VLIW microkernel phases.
- ``schedule``  list-scheduling simulator that stress-tests those bounds.
- ``movement``  the one tiled loop-nest walker; with no payload it is the
                data-movement oracle that byte-counts the nest.
- ``gemm``      numeric payload of that walker (tiled GEMM) and the BFP16
                block codec.
- ``perf``      two-sided (memory/compute) performance estimates.
- ``search``    feasible-space enumeration, ranking, and report emitters.
- ``cli``       ``asymtile`` command-line entry point.

The package root re-exports nothing, so each name is imported from the module
that defines it: ``from asymtile.perf import perf_array``.

A dataclass only where construction validates. Each input (``TileConfig``,
for one) is a frozen dataclass whose ``__post_init__`` checks every field.
Each record a function returns (``PerfEstimate``, for one) is a
``typing.NamedTuple``: nothing checks it, it is as immutable, it is several
times cheaper to build, and it costs no generated code at import. Copy one
with a field changed by ``record._replace(field=...)``; it compares equal to
a plain tuple of the same values.
"""
