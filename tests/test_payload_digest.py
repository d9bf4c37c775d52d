"""tools/payload_digest.py: the byte check compares like with like."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "payload_digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("payload_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_evolve_digest_repeats(digest, capsys):
    outputs = []
    for _ in range(2):
        assert digest.main(["evolve"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    names = [line.split()[0] for line in outputs[0].splitlines()]
    assert names == ["evolve.exit", "evolve.evolve_report.json.payload",
                     "evolve.evolve_report.json.summary", "evolve.trajectory.csv"]
    assert all(len(line.split()[1]) == 64 for line in outputs[0].splitlines())


def test_unknown_subcommand_is_refused(digest, capsys):
    with pytest.raises(SystemExit) as exc:
        digest.main(["nonsense"])
    assert exc.value.code == 2
    assert "nonsense" in capsys.readouterr().err
