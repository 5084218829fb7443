"""The layered benchmark's call-site contract with the program.

``perfbench/tracing.py`` times each layer by replacing public functions
where their callers look them up (``ExecutionRuntime.execute_top_k``,
``PayloadStore.ship``, ``repro.session``'s by-name kernel imports, ...).
A rename of any of them would only surface when the benchmark's traced run
breaks; this test makes it fail the tier-1 suite instead.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_patch_resolves_and_unpatches(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "common"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracing

    tracer = tracing.Tracer()
    try:
        tracing.patch_program(tracer)
        tracing.patch_server(tracer)
        tracing.patch_client(tracer)
        patched = list(tracer._patched)
        assert patched
        for owner, attr, raw in patched:
            assert inspect.getattr_static(owner, attr) is not raw, (owner, attr)
    finally:
        tracer.unpatch()
        for name in ("tracing", "common"):
            sys.modules.pop(name, None)
    # A name patched twice (the frame decoder, by server and client) must
    # come back as the program's own function, not the first wrapper.
    originals = {}
    for owner, attr, raw in patched:
        originals.setdefault((id(owner), attr), (owner, attr, raw))
    for owner, attr, raw in originals.values():
        assert inspect.getattr_static(owner, attr) is raw, (owner, attr)
