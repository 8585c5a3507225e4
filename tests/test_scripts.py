"""scripts/fingerprint.py --against: the lines that differ, each value with its move."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fingerprint.py"


def _fingerprint(monkeypatch):
    # the script puts its checkout's src and perfbench first on sys.path when imported
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_against_prints_only_the_lines_that_moved(monkeypatch):
    fp = _fingerprint(monkeypatch)
    z, z_new = complex(0.5, -0.25), complex(0.5, -0.25 + 2 ** -40)
    old = [f"four-tet | Z | {fp._hex(z)}", f"state-integral | Z | {fp._hex(z)}",
           "-m qdlab.cli gamma | exit 0 | out aa | err bb", "-m qdlab.cli pachner | exit 0"]
    new = [f"four-tet | Z | {fp._hex(z)}", f"state-integral | Z | {fp._hex(z_new)}",
           "-m qdlab.cli gamma | exit 0 | out cc | err bb", "five-tet | Z | 0x1p+0 0x0p+0"]
    assert fp.moved(new, old) == [
        f"state-integral | Z | {fp._hex(z_new)} | moved {2 ** -40 / abs(z):.1e}",
        "-m qdlab.cli gamma | exit 0 | out cc | err bb",
        "five-tet | Z | 0x1p+0 0x0p+0 | new",
        "-m qdlab.cli pachner | exit 0 | gone",
    ]
    assert fp.moved(new, new) == []
