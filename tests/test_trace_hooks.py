"""The names and call signatures that perfbench/layertrace.py patches.

`Tracer.install()` looks up every traced function and method by name, and
its hooks read some arguments by position, so renaming, deleting or
reordering any of them breaks a traced benchmark run. The module is only
imported here; nothing is patched.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from kolmoflow import dns, evolution, pseudospectra, spectral, waveop

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


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
