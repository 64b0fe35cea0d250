import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Derandomized, so every run draws the same examples and a failure
# reproduces; tests that need more examples raise max_examples only.
settings.register_profile(
    "suite", deadline=None, max_examples=50, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


def well_conditioned_transform(rng, n, smin=1.0, smax=2.0, real=False):
    """Random T = U diag(s) V^H with singular values in [smin, smax]; U
    and V are real orthogonal when `real`, else unitary."""
    def haar(r):
        a = r.standard_normal((n, n))
        if not real:
            a = a + 1j * r.standard_normal((n, n))
        q, r_ = np.linalg.qr(a)
        return q * (np.diag(r_) / np.abs(np.diag(r_)))
    u = haar(rng)
    v = haar(rng)
    s = rng.uniform(smin, smax, size=n)
    return u @ np.diag(s).astype(u.dtype) @ v.conj().T


def random_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def count_calls(monkeypatch, names, owners=None):
    """Count the calls of each named function: returns a dict name -> count
    that grows as the test runs.  Each owner (a module, class or namespace)
    that binds a name gets it wrapped; by default every loaded rieszlab
    module, since the package calls its helpers by the name it imports."""
    counts = dict.fromkeys(names, 0)
    if owners is None:
        owners = [module for name, module in list(sys.modules.items())
                  if name.split(".")[0] == "rieszlab"]

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner in owners:
        for name in names:
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name,
                                    counting(name, getattr(owner, name)))
    return counts
