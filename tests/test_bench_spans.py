"""The benchmark traces library entry points by name (``bench/spans.py``);
each of those names must still resolve, so that renaming or deleting a
traced function fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("span", load_spans(), ids=lambda span: span[0])
def test_traced_name_resolves(span):
    _, module_name, attr = span
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(module, cls_name))[method])
    else:
        assert callable(getattr(module, attr))
