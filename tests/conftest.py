import pathlib

import numpy as np
import pytest

from adtypes.core import Instance, TypeSpec

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def example1() -> Instance:
    """Two slots; a video ad worth 12 with discounts (1/2, 1/3) and a link
    ad worth 10 with discounts (1/2, 1/4).  Optimal welfare 9 (link first),
    the naive swap gives 8.5."""
    video = TypeSpec("video", [12.0], [0.5, 1 / 3])
    link = TypeSpec("link", [10.0], [0.5, 0.25])
    return Instance(2, [video, link])


@pytest.fixture
def two_bidders() -> Instance:
    """One type, values (10, 6), discounts (1, 1/2): the classic pair whose
    winner owes 3 under externality pricing."""
    return Instance(2, [TypeSpec("bidders", [10.0, 6.0], [1.0, 0.5])])


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


def _tie_heavy(seed: int) -> Instance:
    """n <= 12 slots and k <= 4 types whose values come from 1-4 distinct
    integers (0 half the time) and whose discounts from 1-3 distinct
    dyadic levels (0 included), so equal values, equal slopes and equal
    discounts abound and every sum is exact."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 13)), int(rng.integers(1, 5))
    pool = rng.choice(17, size=int(rng.integers(1, 5)), replace=False)
    if rng.random() < 0.5:
        pool[0] = 0
    levels = rng.choice([1.0, 0.75, 0.5, 0.25, 0.0],
                        size=int(rng.integers(1, 4)), replace=False)
    types = [TypeSpec(f"t{t}",
                      sorted(map(float, rng.choice(pool, n)), reverse=True),
                      sorted(map(float, rng.choice(levels, n)), reverse=True))
             for t in range(k)]
    return Instance(n, types)


@pytest.fixture
def tie_heavy():
    """The seeded tie-heavy family: ``tie_heavy(seed)`` is an instance."""
    return _tie_heavy
