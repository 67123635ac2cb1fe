from collections import Counter, defaultdict

import numpy as np
import pytest

COUNTED_LINALG = ("svd", "eig", "eigvals", "eigh", "eigvalsh", "cond", "solve", "inv")


class LinalgCounter(Counter):
    """Calls by name; .dtypes[name] lists the dtype of each call's matrix, in call order."""

    def __init__(self):
        super().__init__()
        self.dtypes = defaultdict(list)

    def complex_calls(self, name: str) -> int:
        return sum(np.issubdtype(dt, np.complexfloating) for dt in self.dtypes[name])


@pytest.fixture
def linalg_counter(monkeypatch):
    """LinalgCounter of np.linalg factorization calls made during the test.

    The functions are replaced at the np.linalg attribute, which is how the
    package calls them; numpy's own internal calls (the SVD inside cond) are
    not counted.
    """
    counts = LinalgCounter()
    for name in COUNTED_LINALG:
        def counted(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            counts.dtypes[_name].append(np.asarray(a).dtype)
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts
