import importlib.util
import random
import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

from asymtile.pipeline import LoadClass, MicrokernelSpec

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    """Import ``scripts/<name>`` as a module named after the file. The module
    goes into ``sys.modules`` before it runs, as ``@dataclass`` looks its
    module up there."""
    path = SCRIPTS / name
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def reference_buffer_terms(tile, prec, arch):
    """Exact L1 bytes staged for each of A, B and C, from the byte costs
    directly: the specification ``arch.c_tile_buffers`` must meet."""
    return (
        arch.buffer_multiplier_a * prec.byte_cost_a * (tile.t_ma * tile.t_k),
        arch.buffer_multiplier_b * prec.byte_cost_b * (tile.t_k * tile.t_n),
        arch.buffer_multiplier_c * prec.byte_cost_c * (tile.t_mc * tile.t_n),
    )


def adversarial_microkernel_spec(rng: random.Random) -> tuple[MicrokernelSpec, dict]:
    """A buildable spec from outside ``random_microkernel_spec``'s envelope:
    store forwarding from 0 cycles (often shorter than the MAC pipeline),
    deeper pipelines, two store slots, partial last rounds, unaligned
    loads with pop companions, and always at least two clusters."""
    chains = rng.randint(1, 5)
    r_load = rng.randint(1, 4)
    classes = [
        LoadClass(
            latency=rng.randint(1, 10),
            count=r_load * chains + rng.randint(0, 2),
            unaligned=rng.random() < 0.3,
        )
    ]
    if rng.random() < 0.5:
        classes.append(
            LoadClass(latency=rng.randint(1, 10), count=rng.randint(1, 3), unaligned=rng.random() < 0.5)
        )
    spec = MicrokernelSpec(
        pipeline_depth=rng.randint(1, 8),
        u_ld=rng.choice([1, 2, 4]),
        u_st=rng.randint(1, 2),
        load_classes=tuple(classes),
        r_load=r_load,
        chains=chains,
        n_accum=rng.randint(1, 4 * chains),
        n_clusters=rng.randint(2, 6),
        l_vmac_to_store=rng.randint(0, 8),
        l_store=rng.randint(1, 3),
        n_store=rng.randint(1, 4),
    )
    options = {
        "share_inputs": r_load >= 2 and rng.random() < 0.5,
        "double_buffer": rng.random() < 0.5,
    }
    return spec, options
