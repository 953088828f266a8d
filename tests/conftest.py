import numpy as np
import pytest

import tenspect as ts
import tenspect.support_functionals as sf


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def drawn(monkeypatch):
    """The `high` of every draw that the basis search's walk makes."""
    draws, highs = sf._draws, []

    def counting(seed):
        draw = draws(seed)

        def counted(high):
            highs.append(high)
            return draw(high)
        return counted

    monkeypatch.setattr(sf, "_draws", counting)
    return highs


def random_exact_tensor(rng, domain=ts.RATIONAL, max_dim=3, k=3, density=0.6):
    dims = tuple(int(d) for d in rng.integers(1, max_dim + 1, size=k))
    vals = {}
    for idx in np.ndindex(*dims):
        if rng.random() < density:
            vals[idx] = int(rng.integers(-4, 5))
    if not vals:
        vals[tuple(0 for _ in dims)] = 1
    return ts.from_nonzeros(dims, domain, vals)


def random_complex_tensor(rng, max_dim=3, k=3, density=0.75):
    dims = tuple(int(d) for d in rng.integers(2, max_dim + 1, size=k))
    arr = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    arr = arr * (rng.random(dims) < density)
    if np.abs(arr).max() < 1e-12:
        arr[tuple(0 for _ in dims)] = 1.0
    return ts.Tensor(dims, ts.COMPLEXFLOAT, arr)


def random_support(rng, bounds=(3, 3, 3), max_points=6):
    npts = int(rng.integers(1, max_points + 1))
    pts = set()
    while len(pts) < npts:
        pts.add(tuple(int(rng.integers(b)) for b in bounds))
    return ts.SupportSet(bounds, tuple(pts))
