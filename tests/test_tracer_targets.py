"""The benchmark tracer (bench/spans.py) wraps coxcone functions by module
and name, and a traced run stops at `install()` when one of them is gone."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"coxcone.{module}.{name}" for module, name, *_ in spans.SPECS
               if not callable(getattr(importlib.import_module(f"coxcone.{module}"),
                                       name, None))]
    assert spans.SPECS and not missing
