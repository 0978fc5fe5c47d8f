"""The names perfbench's tracer patches, and every name a module exports,
exist: a deleted or renamed one fails here, not only in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

MODULES = ("bqf", "cli", "errors", "genus", "intkit", "keylemma", "nodesets", "quadfield")


def _load_tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, {m: importlib.import_module(f"genuskit.{m}") for m in MODULES})
    finally:
        tracer.unpatch()


def test_exported_names_resolve():
    for m in MODULES:
        module = importlib.import_module(f"genuskit.{m}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"genuskit.{m}.{name}"
