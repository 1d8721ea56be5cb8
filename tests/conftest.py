import pytest

from hsc import simulate


@pytest.fixture
def fresh_pool():
    """No worker pool is cached when the test starts or after it ends.

    A test that patches ``concurrent.futures.ProcessPoolExecutor`` so sees
    its own pool built, and leaves neither that pool nor a real one behind.
    """
    simulate._shutdown_pool()
    yield
    simulate._shutdown_pool()
