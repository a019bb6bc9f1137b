"""Synthetic two-group 2-D generator used by the CLI and the test suite.

The first group is a 600-point anisotropic cloud elongated along the
10-degree direction (axis scales 3 and 0.5); the second is a 300-point
cloud along 70 degrees (scales 1.5 and 0.5). Projecting onto a single
direction favors the larger group, so the smaller one starts out with the
worse reconstruction, which is exactly the situation the fitting
algorithms are meant to repair.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import RawTable

__all__ = ["DEFAULT_SEED", "s1_table"]

DEFAULT_SEED = 42


def _cloud(rng: np.random.Generator, n: int, angle_deg: float, scales: tuple[float, float]) -> np.ndarray:
    theta = math.radians(angle_deg)
    major = np.array([math.cos(theta), math.sin(theta)])
    minor = np.array([-math.sin(theta), math.cos(theta)])
    z = rng.standard_normal((n, 2))
    return np.outer(scales[0] * z[:, 0], major) + np.outer(scales[1] * z[:, 1], minor)


def s1_table(seed: int = DEFAULT_SEED) -> RawTable:
    """Two elongated Gaussian clouds, 600 rows labeled 'a' then 300 labeled 'b'."""
    rng = np.random.default_rng(seed)
    group_a = _cloud(rng, 600, angle_deg=10.0, scales=(3.0, 0.5))
    group_b = _cloud(rng, 300, angle_deg=70.0, scales=(1.5, 0.5))
    return RawTable(
        features=np.vstack([group_a, group_b]),
        in_a=np.arange(900) < 600,
        label_a="a",
        label_b="b",
        feature_names=("x1", "x2"),
        sensitive_name="group",
    )
