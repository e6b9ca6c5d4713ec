"""Seeded synthetic drives for the replay benchmark.

Each workload is a ``simulator.Scenario`` built from a seed.  ``scale``
shortens a drive for the benchmark's self-tests; the benchmark itself
always runs at scale 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from roadwork_mapper.detections import BARRIER, PANEL_PASS_RIGHT, TRAFFIC_CONE
from roadwork_mapper.simulator import (
    DetectorModel,
    PathVertex,
    Scenario,
    ScenarioObject,
    rectangle,
)

KMH = 1.0 / 3.6


def stress50(seed: int, scale: float = 1.0) -> Scenario:
    """Criterion 7: 50 one-barrier sites on a 10 x 5 grid, no noise."""
    columns = max(2, round(10 * scale))
    barriers = tuple(
        ScenarioObject(BARRIER, rectangle(x, y - 0.4, x + 0.4, y))
        for x in np.arange(60.0, 60.0 + 3.0 * columns, 3.0)
        for y in (-3.0, -5.0, -7.0, -9.0, -11.0)
    )
    return Scenario(
        path=(PathVertex(0.0, 0.0, 10.0), PathVertex(200.0, 0.0, 10.0)),
        sites=tuple((obj,) for obj in barriers),
        seed=seed,
        lidar_noise_sigma=0.0,
        detector=DetectorModel(box_sigma=0.0),
    )


CORRIDOR_SPEEDS_KMH = (50.0, 80.0, 100.0, 60.0)


def corridor(seed: int, scale: float = 1.0) -> Scenario:
    """A ~5 km gently curving road with 30 sparse sites of rotating kind."""
    sites_count = max(3, round(30 * scale))
    spacing = 160.0
    length = 200.0 + spacing * sites_count + 100.0
    rng = np.random.default_rng(seed)
    vertices = [(0.0, 0.0)]
    heading = 0.0
    for k in range(math.ceil(length / 100.0)):
        heading += math.radians(rng.uniform(-4.0, 4.0))
        x, y = vertices[-1]
        vertices.append((x + 100.0 * math.cos(heading), y + 100.0 * math.sin(heading)))
    path = tuple(
        PathVertex(x, y, CORRIDOR_SPEEDS_KMH[i % len(CORRIDOR_SPEEDS_KMH)] * KMH)
        for i, (x, y) in enumerate(vertices)
    )
    groups: tuple[Callable[[float], list[tuple[str, float, float]]], ...] = (
        # (class, arc offset, length along the road) per object
        lambda s: [(PANEL_PASS_RIGHT, s + 10.0 * k, 0.4) for k in range(4)],
        lambda s: [(BARRIER, s + 3.5 * k, 2.0) for k in range(5)],
        lambda s: [(TRAFFIC_CONE, s + 3.0 * k, 0.3) for k in range(8)],
    )
    sites = []
    for i in range(sites_count):
        start = 200.0 + spacing * i
        sites.append(tuple(
            ScenarioObject(cls, _roadside_box(vertices, arc, size, 3.0, 0.3))
            for cls, arc, size in groups[i % len(groups)](start)
        ))
    return Scenario(path=path, sites=tuple(sites), seed=seed)


def _roadside_box(vertices, arc, length, offset, depth):
    """A box on the right shoulder, aligned with the road at ``arc`` meters."""
    remaining = arc
    for (ax, ay), (bx, by) in zip(vertices[:-1], vertices[1:]):
        seg = math.dist((ax, ay), (bx, by))
        if remaining <= seg:
            break
        remaining -= seg
    ux, uy = (bx - ax) / seg, (by - ay) / seg
    nx, ny = uy, -ux  # right-hand normal
    x0, y0 = ax + ux * remaining + nx * offset, ay + uy * remaining + ny * offset
    return (
        (x0, y0),
        (x0 + ux * length, y0 + uy * length),
        (x0 + ux * length + nx * depth, y0 + uy * length + ny * depth),
        (x0 + nx * depth, y0 + ny * depth),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, float], Scenario]
    default_seed: int
    why: str
    # Mean corner error (m), missed and spurious sites of the default seed,
    # which a correct replay of the fingerprinted inputs may not exceed.
    default_accuracy: tuple[float, int, int]
    # The same limits for any other seed: the worst seen over many seeds,
    # with a margin; see README.md.
    accuracy_limits: tuple[float, int, int]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stress50", stress50, 5,
                 "criterion-7 drive with 50 one-barrier sites; site upkeep "
                 "(remove_nested) dominates and the paper's latency bound applies",
                 (0.0, 0, 0), (0.25, 0, 0)),
        Workload("corridor", corridor, 11,
                 "~5 km sparse curving drive with 30 sites; ingest, contour boxes and "
                 "per-cycle fixed cost dominate, the bypass case for site upkeep",
                 (0.8002289674490323, 0, 1), (2.0, 0, 4)),
    )
}
