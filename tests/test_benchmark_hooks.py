"""The benchmark tracer (``ffbench/tracing.py``) wraps library functions by
name and silently skips a name it cannot find, which would read 0 in its
per-layer metrics.  This test only reads ``ffbench``: every boundary must
resolve in the loaded package."""

import pathlib
import sys

import ffzeta.cli  # noqa: F401  (loads every module the benchmark runs)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "ffbench" / "tracing.py"


def _boundaries():
    namespace = {}  # executed from source, so no bytecode is written under ffbench/
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace["BOUNDARIES"]


def test_tracer_boundaries_resolve():
    missing = []
    for name, modname, qualname, _ in _boundaries():
        owner = sys.modules.get(f"ffzeta.{modname}")
        owner_name, _, attr = qualname.rpartition(".")
        if owner is not None and owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{name}: ffzeta.{modname}.{qualname}")
    assert not missing, missing
