import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "default", max_examples=50, deadline=None
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20240717)


def stacked(*components):
    """One function of a (K,) time array returning (K, n_x) values, from one
    function per component; a component may return a scalar for every time."""
    return lambda t: np.stack([np.broadcast_to(f(t), t.shape) for f in components], axis=1)
