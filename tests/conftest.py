import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Derandomized, so every run draws the same examples and a failure
# reproduces; tests that need more examples raise max_examples only.
settings.register_profile(
    "suite", deadline=None, max_examples=50, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


def well_conditioned_transform(rng, n, smin=1.0, smax=2.0):
    """Random T = U diag(s) V^H with singular values in [smin, smax]."""
    def haar(r):
        q, r_ = np.linalg.qr(r.standard_normal((n, n))
                             + 1j * r.standard_normal((n, n)))
        return q * (np.diag(r_) / np.abs(np.diag(r_)))
    u = haar(rng)
    v = haar(rng)
    s = rng.uniform(smin, smax, size=n)
    return u @ np.diag(s).astype(complex) @ v.conj().T


def random_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
