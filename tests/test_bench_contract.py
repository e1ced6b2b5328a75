"""The benchmark harness in perfbench/ still runs against the library.

``parity.check`` runs the CLI stages and the harness's own pipeline on a
smoke-size dataset and compares their reports, so a public name the harness
imports (``objective``, ``load_vectors(path)``, ``graph.degree``, ...) cannot
disappear without this test failing.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_parity_check_passes_at_smoke_size(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    parity = importlib.import_module("parity")
    outcome = parity.check(1, tmp_path / "parity")
    assert outcome["failures"] == []
    assert outcome["attempted"] == 5
