"""The benchmark's own checks.  Every function its tracer wraps must
exist under the name it uses, so that renaming one fails here rather
than in a traced run, and its self-check must pass."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, entries in tracer.LAYERS.items():
        home = importlib.import_module(f"hsagg.{module}")
        for _, path in entries:
            owner_name, _, attr = path.rpartition(".")
            # a method must sit in its class's own dict, where the tracer rebinds it
            owner = getattr(home, owner_name, None) if owner_name else home
            if owner is None or not callable(vars(owner).get(attr)):
                missing.append(f"hsagg.{module}.{path}")
    assert missing == []


def test_benchmark_selfcheck_passes():
    """``python3 perfbench/selfcheck.py`` from the checkout root: its
    negative controls, its call-count determinism (two traced passes in
    one process, which a cache outliving its context breaks) and its
    layer map."""
    done = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
