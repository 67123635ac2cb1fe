from collections import Counter

import numpy as np
import pytest

COUNTED_LINALG = ("svd", "eig", "eigvals", "eigh", "eigvalsh", "cond")


@pytest.fixture
def linalg_counter(monkeypatch):
    """Counter of np.linalg factorization calls, by name, made during the test.

    The functions are replaced at the np.linalg attribute, which is how the
    package calls them; numpy's own internal calls (the SVD inside cond) are
    not counted.
    """
    counts = Counter()
    for name in COUNTED_LINALG:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts
