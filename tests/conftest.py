import pytest
from hypothesis import HealthCheck, settings

from walshlab.linalg import pin_blas_threads

settings.register_profile(
    "suite",
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Every test runs on the one BLAS thread of a CLI command, whichever test
    ran ``cli.run_command`` first."""
    pin_blas_threads()
