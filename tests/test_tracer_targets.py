"""Every function the benchmark tracer wraps exists under its name.

``bench/tracer.py`` patches functions by module and attribute name and
skips a name it cannot find, so a renamed function would read in the
benchmark as a layer that takes no time.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_tracer_patch_target_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.instrument(tracer.Tracer(), tracer.PATCHES) as missing:
        assert missing == []
