import pytest

from twinstore import PrimeField, encode_system
from twinstore.demo import build_demo_config, build_demo_layout

# Sub-recommended connectivity (n < 2k-1) is exercised on purpose all over
# the suite; the advisory warning itself has a dedicated test and the rest
# is silenced via the filterwarnings entry in pyproject.toml.


@pytest.fixture(scope="session")
def f11():
    return PrimeField(11)


@pytest.fixture(scope="session")
def f101():
    return PrimeField(101)


@pytest.fixture(scope="session")
def demo_config():
    return build_demo_config()


@pytest.fixture(scope="session")
def demo_layout():
    return build_demo_layout(seed=7)


@pytest.fixture(scope="session")
def demo_system(demo_config, demo_layout):
    return encode_system(demo_config, demo_layout.matrix)

