import evoaut


def test_every_export_resolves():
    assert [name for name in evoaut.__all__ if not hasattr(evoaut, name)] == []
    assert len(set(evoaut.__all__)) == len(evoaut.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from evoaut import *", namespace)
    assert set(evoaut.__all__) <= namespace.keys()


def test_bench_span_hooks_name_live_code():
    """The benchmark's tracer wraps methods and observes functions by name;
    a rename would silently zero its metrics, so each name must resolve."""
    import importlib
    import importlib.util
    import inspect
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, classes in spans.METHODS.items():
        module = importlib.import_module(f"evoaut.{layer}")
        for name, methods in classes.items():
            assert [m for m in methods if m not in vars(getattr(module, name))] == [], name
    for key in spans.OBSERVERS:
        layer, name = key.split(".")
        assert inspect.isfunction(getattr(importlib.import_module(f"evoaut.{layer}"), name)), key
    assert evoaut.monomial.smith_normal_form is evoaut.snf.smith_normal_form
