import dualsynth


def test_every_exported_name_resolves():
    missing = [name for name in dualsynth.__all__
               if not hasattr(dualsynth, name)]
    assert not missing


def test_star_import():
    namespace: dict = {}
    exec("from dualsynth import *", namespace)
    assert set(dualsynth.__all__) <= set(namespace)
