"""Data race detection for simulated multithreaded programs via
record/replay: trace the synchronisation order once, replay the execution
while comparing per-segment address sets, then replay again to pinpoint
the racing instructions."""

from .bitmap import MultilevelBitmap, race_witnesses
from .detector import detect
from .generator import generate_program
from .identify import identify
from .machine import run
from .program import load_program, parse_program
from .record import record_execution
from .replay import replay_execution

__version__ = "0.1.0"

# The one bitmap implementation; perfbench records this in its provenance.
bitmap_backend = "py"

__all__ = [
    "MultilevelBitmap",
    "bitmap_backend",
    "detect",
    "generate_program",
    "identify",
    "load_program",
    "parse_program",
    "race_witnesses",
    "record_execution",
    "replay_execution",
    "run",
    "__version__",
]
