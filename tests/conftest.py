import importlib.util
import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

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
