"""The public API: ``uwofdm.__all__`` lists each name once, and every
listed name exists."""

import uwofdm


def test_all_has_no_duplicates():
    assert len(uwofdm.__all__) == len(set(uwofdm.__all__))


def test_every_name_in_all_resolves():
    assert [name for name in uwofdm.__all__ if not hasattr(uwofdm, name)] == []


def test_star_import():
    namespace: dict = {}
    exec("from uwofdm import *", namespace)
    assert set(uwofdm.__all__) <= namespace.keys()
