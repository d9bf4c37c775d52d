"""The names and call signatures that the benchmark under perfbench/ uses.

`Tracer.install()` in layertrace.py looks up every traced function and
method by name, and its hooks read some arguments by position, so renaming,
deleting or reordering any of them breaks a traced benchmark run. The
module is only imported here; nothing is patched.

The workloads (workloads.py) and the reference recorder
(record_reference.py) call the package through module aliases and names
imported from it. Their source is parsed, not run: every attribute of a
kolmoflow module alias and every imported name must resolve, and every
keyword passed to a kolmoflow callable must be one of its parameters. A
deletion that would break a workload fails here rather than in a
benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from kolmoflow import dns, evolution, pseudospectra, spectral, waveop

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"
BENCH_CALLERS = ("workloads.py", "record_reference.py")


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_span_resolves(layertrace):
    for span, (module, names) in layertrace.FUNCTION_SPANS.items():
        for name in names:
            assert callable(getattr(module, name, None)), (span, module.__name__, name)


def test_every_method_span_is_defined_on_its_class(layertrace):
    for span, (cls, name) in layertrace.METHOD_SPANS.items():
        assert name in cls.__dict__, (span, cls.__name__, name)


@pytest.mark.parametrize("fn, positions", [
    (pseudospectra.smallest_singular_value, {0: "op", 2: "metric", 3: "method"}),
    (evolution.propagator, {0: "op", 1: "t", 2: "norm_cap"}),
    (waveop.WaveOperator.__init__, {0: "self", 4: "_defer"}),
    (dns.run_simulation, {0: "config"}),
    (dns.step_imex, {0: "state"}),
])
def test_hooked_arguments_keep_their_positions(fn, positions):
    params = list(inspect.signature(fn).parameters)
    assert {i: params[i] for i in positions} == positions


def test_band_diagonals_and_sweep_signature():
    # the propagator hook sums |op.diags|; the dns workload calls the sweep
    # with (nus, epsilons, template, sample_every=...)
    assert isinstance(spectral.OperatorMatrix.__dict__["diags"], property)
    assert list(inspect.signature(dns.run_threshold_sweep).parameters)[:4] == [
        "nus", "epsilons", "template", "sample_every"]


def _imported(tree: ast.Module) -> dict:
    """Local name -> object for every `from kolmoflow... import` in tree
    (None where the name does not resolve)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kolmoflow"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name, None)
                if obj is None:
                    try:
                        obj = importlib.import_module(f"{node.module}.{alias.name}")
                    except ImportError:
                        pass
                names[alias.asname or alias.name] = obj
    return names


@pytest.fixture(scope="module", params=BENCH_CALLERS)
def bench_source(request):
    tree = ast.parse((PERFBENCH / request.param).read_text())
    return request.param, tree, _imported(tree)


def test_bench_imports_resolve(bench_source):
    name, _, names = bench_source
    assert names, name
    assert {k: v for k, v in names.items() if v is None} == {}, name


def test_bench_module_attributes_resolve(bench_source):
    name, tree, names = bench_source
    modules = {k: v for k, v in names.items() if inspect.ismodule(v)}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert used, name
    missing = sorted(f"{alias}.{attr}" for alias, attr in used
                     if not hasattr(modules[alias], attr))
    assert missing == [], name


def _callee(func: ast.expr, names: dict):
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and inspect.ismodule(names.get(func.value.id))):
        return getattr(names[func.value.id], func.attr, None)
    return None


def test_bench_keywords_are_parameters(bench_source):
    # covers the ForcingSpec and DNSConfig fields the workloads set
    name, tree, names = bench_source
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = _callee(node.func, names)
        if fn is None or not callable(fn):
            continue
        params = inspect.signature(fn).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        bad += [f"{getattr(fn, '__qualname__', fn)}({kw.arg}=)" for kw in node.keywords
                if kw.arg is not None and kw.arg not in params]
    assert bad == [], name


def test_dns_sweep_template_keys_are_config_fields():
    # run_threshold_sweep passes its template, gamma_of aside, to DNSConfig
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    templates = [node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                 and any(isinstance(t, ast.Name) and t.id == "template" for t in node.targets)]
    assert templates
    allowed = {f.name for f in fields(dns.DNSConfig)} | {"gamma_of"}
    for d in templates:
        assert {k.value for k in d.keys} <= allowed
