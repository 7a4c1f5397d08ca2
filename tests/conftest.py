import pytest

from hilbsam import groebner


@pytest.fixture
def verify_mode():
    """Turn on groebner.VERIFY while the fixture is active: every
    global-path colength v is checked against the weight-0 local standard
    basis (against the truncated colength D(v) where that basis cannot be
    built), truncated colengths against the rank oracle, and every other
    hook against its second path.  A local-path colength is certified by
    its truncated colength with or without the fixture."""
    old, groebner.VERIFY = groebner.VERIFY, True
    yield
    groebner.VERIFY = old
