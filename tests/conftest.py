import pytest

from hilbsam import groebner


@pytest.fixture
def verify_mode():
    """Turn on groebner.VERIFY while the fixture is active: every colength
    is checked against the weight-0 local standard basis (a global-path one
    against the ladder where that basis cannot be built), truncated
    colengths against the rank oracle, and every other hook against its
    second path."""
    old, groebner.VERIFY = groebner.VERIFY, True
    yield
    groebner.VERIFY = old
