"""The benchmark tracer (``ffbench/tracing.py``) wraps library functions by
name and silently skips a name it cannot find, which would read 0 in its
per-layer metrics.  This test only reads ``ffbench``: every boundary must
resolve in the loaded package."""

import ast
import importlib
import inspect
import pathlib
import sys
from collections import OrderedDict

import pytest

import ffzeta.cli  # noqa: F401  (loads every module the benchmark runs)
from ffzeta import ore
from ffzeta.ffield import field_make
from ffzeta.lseries import special_polynomial
from ffzeta.ore import carlitz, reduce_mod_prime
from ffzeta.poly import monic_irreducibles

TRACING = pathlib.Path(__file__).resolve().parents[1] / "ffbench" / "tracing.py"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def _tracing():
    namespace = {}  # executed from source, so no bytecode is written under ffbench/
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


def _boundaries():
    return _tracing()["BOUNDARIES"]


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


def test_cache_snapshot_sees_the_power_sum_table():
    """The tracer reads ``lseries.power_table.rows`` and ``.zero_row`` from
    the table's ``_rows`` and ``zero_row``; a reshaped table must keep both
    readable, or those metrics silently read 0."""
    special_polynomial(field_make(3, 1), 60, "zeta")
    caches = _tracing()["cache_snapshot"]()
    assert caches["table_rows"] > 0
    assert caches["zero_row"] > 0


def test_cache_snapshot_sees_the_residue_fields(monkeypatch):
    """The tracer reads ``ore.residue_field.hit_ratio`` as one less the
    residue fields cached per call; a cache it cannot find would read 0
    fields and a hit ratio of 1.0.  Reduction alone builds no field; the
    torsion oracle reaches the cache through the reduced module's field."""
    monkeypatch.setattr(ore, "_RESIDUE_CACHE", OrderedDict())
    monkeypatch.setattr(ore, "_residue_cache_elements", 0)
    field_r = field_make(2, 2)
    phi = carlitz(field_r)
    for f in monic_irreducibles(field_r, 2):
        assert reduce_mod_prime(phi, f).dom.field.modulus == f.coeffs
    assert _tracing()["cache_snapshot"]()["residue_fields"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["special", "--r", "3", "--i", "0..6"],
        ["special", "--r", "3", "--i", "0..6", "--format", "csv"],
        ["lfactors", "carlitz", "--r", "2", "--dmax", "3"],
        ["lfactors", "carlitz", "--r", "2", "--dmax", "3", "--format", "csv"],
        ["classify", str(GOLDEN / "eigen_delta_r2.csv"), "--r", "2"],
    ],
    ids=["special-json", "special-csv", "lfactors-json", "lfactors-csv", "classify"],
)
def test_serialization_spans_are_reached(capsys, monkeypatch, argv):
    """The tracer's ``cli.json_block`` and ``cli.csv_block`` spans see every
    artifact: each run calls the function of its format exactly once and
    the other not at all.  A writer that bypassed them would read 0 in
    ``cli.serialize.*`` with no error."""
    calls = {"json_block": 0, "csv_block": 0}
    for name in calls:
        real = getattr(ffzeta.cli, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(ffzeta.cli, name, counting)
    assert ffzeta.cli.main(argv) == 0
    capsys.readouterr()
    fmt = "csv_block" if "csv" in argv else "json_block"
    assert calls == {name: int(name == fmt) for name in calls}


def _count_spans(monkeypatch, names) -> dict:
    """Span name -> calls of its boundary, counted by wrappers patched where
    the tracer patches: on the class, or in every namespace that binds the
    function."""
    calls = dict.fromkeys(names, 0)
    modules = [m for n, m in sys.modules.items() if n == "ffzeta" or n.startswith("ffzeta.")]
    for name, modname, qualname, _ in _boundaries():
        if name not in calls:
            continue
        owner = sys.modules[f"ffzeta.{modname}"]
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)
        real = vars(owner)[attr]

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for space in [owner] if owner_name else modules:
            for bound, value in list(vars(space).items()):
                if value is real:
                    monkeypatch.setattr(space, bound, counting)
    return calls


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_special_rows_reach_the_row_spans_once(capsys, monkeypatch, fmt):
    """The tracer times ``lseries.special`` per row (its p50 and tail) and
    ``cli.special_to_string`` per row: each row of ``special`` must call
    both boundaries exactly once, or those metrics change their meaning."""
    calls = _count_spans(monkeypatch, ("lseries.special", "cli.special_to_string"))
    assert ffzeta.cli.main(["special", "--r", "3", "--i", "5..40", "--format", fmt]) == 0
    capsys.readouterr()
    assert calls == {name: 36 for name in calls}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("obj,r,dmax", [("cbeta:(T+1)/T", "2", 5), ("carlitz", "3", 3), ("rank2:T,1", "3", 2)])
def test_lfactors_rows_reach_the_row_spans_once(capsys, monkeypatch, fmt, obj, r, dmax):
    """The tracer times ``lseries.local_factor`` per row (its p50 and tail),
    and ``ore.charpoly`` and ``cli.denominator_string`` per call: each prime
    of ``lfactors`` must call each of them exactly once."""
    calls = _count_spans(monkeypatch, ("lseries.local_factor", "ore.charpoly", "cli.denominator_string"))
    argv = ["lfactors", obj, "--r", r, "--dmax", str(dmax), "--format", fmt]
    assert ffzeta.cli.main(argv) == 0
    capsys.readouterr()
    primes = len(monic_irreducibles(field_make(int(r), 1), dmax))
    assert calls == {name: primes for name in calls}


def _import_from(module, name):
    """What ``from module import name`` binds: an attribute, else a submodule."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")


def _ffzeta_bindings(tree, path, missing):
    """Local name -> ffzeta object for every ffzeta import in one file."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ffzeta":
            for alias in node.names:
                try:
                    bound[alias.asname or alias.name] = _import_from(node.module, alias.name)
                except ImportError:
                    missing.append(f"{path.name}:{node.lineno}: {node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ffzeta":
                    module = importlib.import_module(alias.name)  # ``import a.b`` binds ``a``
                    bound[alias.asname or "ffzeta"] = module if alias.asname else importlib.import_module("ffzeta")
    return bound


def test_ffbench_calls_into_ffzeta_resolve():
    """Every name ffbench imports from ffzeta exists, and every call ffbench
    makes of an ffzeta function binds to its signature, positional arguments
    and keywords alike.  Only the source is parsed, so nothing is written
    under ffbench/."""
    missing, bad_calls = [], []
    for path in sorted(TRACING.parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = _ffzeta_bindings(tree, path, missing)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain, head = [], node.func
            while isinstance(head, ast.Attribute):
                chain.insert(0, head.attr)
                head = head.value
            if not isinstance(head, ast.Name) or head.id not in bound:
                continue
            where = f"{path.name}:{node.lineno}: {'.'.join([head.id] + chain)}"
            func = bound[head.id]
            try:
                for attr in chain:
                    func = getattr(func, attr)
            except AttributeError:
                missing.append(where)
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(kw.arg is None for kw in node.keywords):
                continue  # *args or **kwargs: the count is not in the source
            try:
                inspect.signature(func).bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
            except TypeError as exc:
                bad_calls.append(f"{where}: {exc}")
    assert not missing, missing
    assert not bad_calls, bad_calls
