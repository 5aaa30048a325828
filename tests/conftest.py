"""Shared helpers for the test suite."""

import random
from fractions import Fraction as F

from hypothesis import settings

from liftfix.errors import DomainViolation
from liftfix.type3 import triangle_from_gammas

# `--hypothesis-profile=ci` replays the same examples on every run; without
# it, each run draws new ones.
settings.register_profile("ci", derandomize=True)


def random_valid_triangle(rng: random.Random):
    """Draws satisfying every domain constraint exactly; retries otherwise."""
    while True:
        b2 = F(-rng.randint(1, 11), 12)
        b1 = F(-rng.randint(1, 11), 12)
        if b2 > b1:
            b1, b2 = b2, b1
        if b1 == b2 or b1 == 0 or b2 == -1:
            continue
        g1 = F(rng.randint(2, 24), 8)
        g2 = F(rng.randint(1, 7), 8)
        g3 = F(rng.randint(1, 7), 8)
        try:
            return triangle_from_gammas((b1, b2), g1, g2, g3)
        except DomainViolation:
            continue


def random_rational_point(rng: random.Random, lo=-1, hi=1, den=8):
    return (F(rng.randint(lo * den, hi * den), den),
            F(rng.randint(lo * den, hi * den), den))
