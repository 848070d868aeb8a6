"""Every name the package exports exists.

A name listed in otsource.__all__ whose definition was deleted or
renamed breaks `from otsource import *` without failing any other test.
"""

import pytest

import otsource


@pytest.mark.parametrize("name", otsource.__all__)
def test_public_name_resolves(name):
    assert getattr(otsource, name, None) is not None, f"otsource.{name} is gone"
