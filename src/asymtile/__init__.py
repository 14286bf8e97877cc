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

Inputs and records are ``typing.NamedTuple``s: immutable, cheap to build,
and free of the generated code a dataclass ``exec``s at import. Each record
a function returns (``PerfEstimate``, for one) is a bare NamedTuple that
nothing checks. Each input (``TileConfig``, for one) is a NamedTuple of its
fields under a :class:`~asymtile.arch.CheckedTuple` subclass whose
``__new__`` checks every field. Copy either with a field changed by
``value._replace(field=...)``; an input's copy is checked like a new one.
Both compare equal to a plain tuple of the same values. The dataclasses
left also check on construction: ``search.SearchSpace``, which callers copy
with ``dataclasses.replace`` and only the CLI's search path imports, and
``gemm``'s ``Matrix`` and ``Bfp16Block``, which the CLI never imports.
"""
