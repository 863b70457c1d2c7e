import evoaut


def test_every_export_resolves():
    assert [name for name in evoaut.__all__ if not hasattr(evoaut, name)] == []
    assert len(set(evoaut.__all__)) == len(evoaut.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from evoaut import *", namespace)
    assert set(evoaut.__all__) <= namespace.keys()
