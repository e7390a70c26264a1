import math

import pytest

from wavegrowth.oracles import example_pair
from wavegrowth.profiles import Profile, ProfilePair
from wavegrowth.quadrature import QuadConfig


@pytest.fixture(scope="session")
def example():
    """Zero displacement plus twice the indicator of [-1, 1]."""
    return example_pair()


@pytest.fixture(scope="session")
def gauss1d_vel():
    return ProfilePair(1, Profile.zero(1), Profile.gaussian(1, 1.0))


@pytest.fixture(scope="session")
def gauss_pair_1d():
    return ProfilePair(1, Profile.gaussian(1, 1.2, 0.5), Profile.gaussian(1, 1.0))


@pytest.fixture(scope="session")
def gauss2d_vel():
    return ProfilePair(2, Profile.zero(2), Profile.gaussian(2, 1.0))


@pytest.fixture(scope="session")
def gauss_pair_2d():
    return ProfilePair(2, Profile.gaussian(2, 1.5, 0.7), Profile.gaussian(2, 0.9, 1.1))


@pytest.fixture(scope="session")
def shifted_pair_2d():
    """A pair off the origin: not radial, so the decay chain runs on the grid."""
    c = (0.6, -0.4)
    return ProfilePair(2, Profile.gaussian(2, 1.5, 0.7, center=c), Profile.gaussian(2, 0.9, 1.1, center=c))


@pytest.fixture(scope="session")
def poly_pair_2d():
    """Odd in x_1, hence not radial: the decay chain runs on the grid."""
    return ProfilePair(2, Profile.polynomial_gaussian(2, 1.2, 0.7), Profile.polynomial_gaussian(2, 1.0, 1.1))


@pytest.fixture(scope="session")
def p0_2d():
    """Mean-zero 2D velocity whose squared norm plateaus at pi/32."""
    return ProfilePair(2, Profile.zero(2), Profile.polynomial_gaussian(2, 1.0 / math.sqrt(2.0)))


@pytest.fixture(scope="session")
def quad_cfg():
    return QuadConfig()
