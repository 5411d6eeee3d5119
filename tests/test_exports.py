import carepath


def test_star_import_defines_every_export():
    namespace: dict = {}
    exec("from carepath import *", namespace)
    missing = [name for name in carepath.__all__ if name not in namespace]
    assert missing == []
    assert len(set(carepath.__all__)) == len(carepath.__all__)
