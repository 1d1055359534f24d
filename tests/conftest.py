import pytest
from hypothesis import settings

from threshold_gms.validation import SuiteConfig, SuiteContext

# Every @given test draws the same examples on every run, so Tier-1 is
# deterministic; each test's own max_examples and deadline still apply.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def suite_context():
    """Shared acceptance context so heavy Monte Carlo runs happen once."""
    return SuiteContext(SuiteConfig())


@pytest.fixture(scope="session")
def count_run(suite_context):
    return suite_context.count_run()


@pytest.fixture(scope="session")
def limit_run(suite_context):
    return suite_context.limit_run()
