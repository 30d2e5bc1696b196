"""The benchmark's span tracer finds every object it wraps.

``perfbench/spans.py`` wraps public names where their callers look them up.
It skips a missing name, but a missing module or class stops every traced
run, so each owner it lists must still resolve.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_owner_resolves():
    spans = _spans_module()
    owners = sorted({owner for owner, _attr, _layer in spans.WRAPS})
    assert owners
    for owner in owners:
        assert spans._resolve(owner) is not None, owner
