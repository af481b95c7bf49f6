"""Parametric mesh builders for the test scenarios.

All builders return :class:`~mconvex.varifold.SimplicialSurface` objects in
ambient coordinates.  Triangulations are deliberately simple (fan / grid
patterns); refinement studies vary the resolution parameters rather than
remeshing.
"""
from __future__ import annotations

import numpy as np

from .varifold import SimplicialSurface


def _orthonormal_complement(normal):
    """Two unit vectors spanning the plane orthogonal to ``normal``."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    a = np.zeros(3)
    a[np.argmin(np.abs(n))] = 1.0
    e1 = np.cross(n, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return e1, e2


def _ring_strips(first, strips, segments):
    """Triangles joining ``strips + 1`` consecutive rings of ``segments``
    vertices each, the first ring starting at vertex ``first``; two triangles
    per quad, ring by ring."""
    tris = []
    for r in range(strips):
        a = first + r * segments
        b = a + segments
        for j in range(segments):
            jn = (j + 1) % segments
            tris.append((a + j, b + j, b + jn))
            tris.append((a + j, b + jn, a + jn))
    return tris


def disk_mesh(radius=1.0, center=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0),
              rings=8, segments=64):
    """Flat triangulated disk: concentric rings around the center vertex."""
    center = np.asarray(center, dtype=float)
    e1, e2 = _orthonormal_complement(normal)
    verts = [center]
    for r in range(1, rings + 1):
        rho = radius * r / rings
        theta = 2 * np.pi * np.arange(segments) / segments
        verts.extend(center + rho * (np.outer(np.cos(theta), e1) + np.outer(np.sin(theta), e2)))
    tris = [(0, 1 + j, 1 + (j + 1) % segments) for j in range(segments)]
    tris.extend(_ring_strips(1, rings - 1, segments))
    return SimplicialSurface(verts, tris)


def bulged_disk_mesh(rings=6, segments=48, amplitude=0.05):
    """Plateau start: the disk of radius 0.3 at z = 0.85 with its interior
    lifted by ``amplitude * cos(pi r / 0.6)`` and its rim unchanged."""
    disk = disk_mesh(radius=0.3, center=(0.0, 0.0, 0.85), rings=rings, segments=segments)
    verts = disk.vertices.copy()
    interior = np.setdiff1d(np.arange(len(verts)), disk.boundary_vertices())
    r = np.linalg.norm(verts[interior, :2], axis=1)
    verts[interior, 2] += amplitude * np.cos(np.pi * r / 0.6)
    return disk.with_vertices(verts)


def icosphere_mesh(radius=1.0, center=(0.0, 0.0, 0.0), subdivisions=3):
    """Geodesic sphere from a subdivided icosahedron (5120 faces at level 4)."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = list(verts)
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                v = verts[i] + verts[j]
                verts.append(v / np.linalg.norm(v))
                cache[key] = len(verts) - 1
            return cache[key]

        faces = [
            tri
            for (a, b, c) in faces
            for tri in (
                (a, midpoint(a, b), midpoint(a, c)),
                (b, midpoint(b, c), midpoint(a, b)),
                (c, midpoint(a, c), midpoint(b, c)),
                (midpoint(a, b), midpoint(b, c), midpoint(a, c)),
            )
        ]
    verts = np.asarray(center, dtype=float) + radius * np.asarray(verts)
    return SimplicialSurface(verts, faces)


def theorem4_varifold():
    """theorem4's varifold, the unit icosphere at multiplicity 2 plus the
    radius-0.4 icosphere, and its boundary mesh, the unit icosphere."""
    boundary = icosphere_mesh(radius=1.0, subdivisions=3)
    interior = icosphere_mesh(radius=0.4, subdivisions=2)
    varifold = SimplicialSurface(
        np.vstack([boundary.vertices, interior.vertices]),
        np.vstack([boundary.simplices, interior.simplices + len(boundary.vertices)]),
        np.repeat([2.0, 1.0], [len(boundary.simplices), len(interior.simplices)]))
    return varifold, boundary


def sphere_cap_mesh(radius=2.0, center=(0.0, 0.0, -1.2), z_range=(0.68, 0.79),
                    rings=10, segments=80):
    """Band of a round sphere between two horizontal planes.

    The default is a band of the radius-2 sphere centered at (0, 0, -1.2):
    mean curvature magnitude 2/R = 1, strictly inside the open unit ball
    (the two spheres meet at z = 0.65 and the pole sits at z = 0.8, so the
    band must stay strictly between those heights).
    """
    center = np.asarray(center, dtype=float)
    z0, z1 = z_range
    verts = []
    for r in range(rings + 1):
        z = z0 + (z1 - z0) * r / rings
        rho = np.sqrt(radius ** 2 - (z - center[2]) ** 2)
        theta = 2 * np.pi * np.arange(segments) / segments
        ring = np.stack([
            center[0] + rho * np.cos(theta),
            center[1] + rho * np.sin(theta),
            np.full(segments, z),
        ], axis=-1)
        verts.extend(ring)
    tris = _ring_strips(0, rings, segments)
    return SimplicialSurface(verts, tris)


def cylinder_mesh(radius=1.0, z_range=(-0.5, 0.5), rings=16, segments=96):
    """Open cylinder of the given radius around the x3 axis."""
    z0, z1 = z_range
    verts = []
    for r in range(rings + 1):
        z = z0 + (z1 - z0) * r / rings
        theta = 2 * np.pi * np.arange(segments) / segments
        verts.extend(np.stack([
            radius * np.cos(theta), radius * np.sin(theta), np.full(segments, z)
        ], axis=-1))
    tris = _ring_strips(0, rings, segments)
    return SimplicialSurface(verts, tris)
