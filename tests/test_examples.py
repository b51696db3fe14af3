"""Smoke tests: the examples that build the self-* engines run to the end.

Each runs inside a temporary directory, so files an example writes
(the dashboard's Chrome trace) stay out of the checkout.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("script, kwargs", [
    ("elastic_storage.py", {}),
    ("hotspot_cache.py", {}),
    ("introspection_dashboard.py", {"until": 30.0}),
], ids=["elastic_storage", "hotspot_cache", "introspection_dashboard"])
def test_example_runs(script, kwargs, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    main = runpy.run_path(str(EXAMPLES / script))["main"]
    main(**kwargs)
    assert capsys.readouterr().out
