import eaclab


def test_every_exported_name_resolves():
    missing = [name for name in eaclab.__all__ if not hasattr(eaclab, name)]
    assert missing == []
    assert len(set(eaclab.__all__)) == len(eaclab.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from eaclab import *", namespace)
    assert set(eaclab.__all__) <= set(namespace)
