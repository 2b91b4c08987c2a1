"""The package's public name list."""

import cpelab


def test_star_import_and_all_names_resolve():
    namespace = {}
    exec("from cpelab import *", namespace)
    names = cpelab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(cpelab, name) is namespace[name]
