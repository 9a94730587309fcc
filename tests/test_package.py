"""The public names of the package."""

import uavrelay


def test_all_is_unique_and_star_importable():
    names = uavrelay.__all__
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from uavrelay import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
