import cyclocert


def test_every_exported_name_resolves():
    assert len(cyclocert.__all__) == len(set(cyclocert.__all__))
    missing = [name for name in cyclocert.__all__ if not hasattr(cyclocert, name)]
    assert missing == []


def test_star_import_is_clean():
    namespace: dict = {}
    exec("from cyclocert import *", namespace)
    exported = set(namespace) - {"__builtins__"}
    assert exported == set(cyclocert.__all__)
