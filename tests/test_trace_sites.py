"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps module
attributes of the program by name; each one must exist."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return spans.SITES


@pytest.mark.parametrize("module,attr,span", _sites())
def test_site_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))
