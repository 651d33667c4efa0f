import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# one profile for every property test: no per-example deadline, since
# spectral examples at N = 512 vary in cost; max_examples stays per test
settings.register_profile("densgeo", deadline=None)
settings.load_profile("densgeo")


@pytest.fixture
def fft_calls(monkeypatch):
    """Names of the numpy.fft functions called, in order."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "rfftn", "irfftn"):
        real = getattr(np.fft, name)
        monkeypatch.setattr(
            np.fft, name, lambda *a, _f=real, _n=name, **k: calls.append(_n) or _f(*a, **k)
        )
    return calls
