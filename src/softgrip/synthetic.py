"""Seeded synthetic scenes for tests, demos, and pipeline smoke runs."""

from __future__ import annotations

import numpy as np

from .perception import GLOBAL_FRAME, PointCloud

__all__ = ["make_cylinder", "uniform_box_noise"]


def make_cylinder(
    diameter_m: float = 0.08,
    height_m: float = 0.12,
    n_points: int = 5000,
    seed: int = 0,
    center: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> PointCloud:
    """Uniform surface samples of an upright (z-axis) cylinder, global frame.

    Points are split between the lateral surface and the end caps in
    proportion to their areas, so the axis-aligned bounding box matches
    the nominal dimensions tightly even at modest point counts.
    """
    rng = np.random.default_rng(seed)
    radius = diameter_m / 2.0

    lateral_area = np.pi * diameter_m * height_m
    cap_area = 2.0 * np.pi * radius ** 2
    n_lateral = int(round(n_points * lateral_area / (lateral_area + cap_area)))
    n_caps = n_points - n_lateral

    phi = rng.uniform(0.0, 2.0 * np.pi, n_lateral)
    z = rng.uniform(-height_m / 2.0, height_m / 2.0, n_lateral)
    lateral = np.column_stack((radius * np.cos(phi), radius * np.sin(phi), z))

    parts = [lateral]
    if n_caps > 0:
        phi_c = rng.uniform(0.0, 2.0 * np.pi, n_caps)
        r_c = radius * np.sqrt(rng.uniform(0.0, 1.0, n_caps))
        z_c = np.where(rng.uniform(size=n_caps) < 0.5, -height_m / 2.0, height_m / 2.0)
        parts.append(np.column_stack((r_c * np.cos(phi_c), r_c * np.sin(phi_c), z_c)))

    pts = np.vstack(parts) + np.asarray(center, dtype=np.float64)
    return PointCloud(pts, GLOBAL_FRAME)


def uniform_box_noise(
    n_points: int,
    side_m: float = 1.0,
    seed: int = 1,
    center: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> PointCloud:
    """Uniform outlier points inside a cube of the given side length, global frame."""
    rng = np.random.default_rng(seed)
    half = side_m / 2.0
    pts = rng.uniform(-half, half, size=(n_points, 3)) + np.asarray(center, dtype=np.float64)
    return PointCloud(pts, GLOBAL_FRAME)
