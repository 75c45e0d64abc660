"""The package's public surface."""

import fgm


def test_every_exported_name_resolves():
    # a stale entry would make ``from fgm import *`` raise AttributeError
    assert [name for name in fgm.__all__ if not hasattr(fgm, name)] == []
    assert len(set(fgm.__all__)) == len(fgm.__all__)
