import math
import random
from fractions import Fraction

import pytest

from recipsums import PrimeField, ResidueSet


def random_subset(p: int, rng: random.Random, min_size: int = 1) -> ResidueSet:
    size = rng.randint(min_size, p - 1)
    return ResidueSet.from_members(PrimeField(p), rng.sample(range(p), size))


def epsilon_for_height(p: int, h: int) -> Fraction:
    """An exact rational epsilon in (0, 1] with floor(p^epsilon) == h."""
    assert 1 <= h <= p
    for den in range(1, 129):
        # smallest num >= 1 with p^num >= h^den
        num = 1
        while p**num < h**den:
            num += 1
        if h**den <= p**num < (h + 1) ** den and num <= den:
            return Fraction(num, den)
    raise AssertionError(f"no small rational exponent for p={p}, H={h}")


def plain_json(value):
    """value as the plain JSON values that cli._encode writes for it."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: plain_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain_json(v) for v in value]
    return value.tolist() if hasattr(value, "tolist") else value


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260809)
