"""The package's public names. A stale entry in `mttsort.__all__` would
otherwise fail only on `from mttsort import *`."""

import mttsort


def test_every_name_in_all_resolves_on_the_package():
    assert [name for name in mttsort.__all__ if not hasattr(mttsort, name)] == []
    assert len(set(mttsort.__all__)) == len(mttsort.__all__)
