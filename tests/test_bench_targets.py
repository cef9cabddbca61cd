"""The benchmark's tracer patches these names; each must still exist."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in spans.TARGETS
        if attr not in owner.__dict__
    ]
    assert not missing, missing
