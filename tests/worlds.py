"""The benchmark's world generator, perfbench/gen.py, loaded from its file
for the tests that build generated worlds."""

import importlib.util
import sys
from pathlib import Path

GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


def load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    # Write no bytecode cache into the benchmark's directory.
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


gen = load_gen()
