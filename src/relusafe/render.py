"""Deterministic heatmap rasterizer for per-cell safety bounds.

Writes binary PPM (P6), an uncompressed portable raster that is bit-exact
across platforms.  Cells are colored by their bound on a fixed 0..1 scale,
obstacles are black, cell boundaries dark, points outside the domain light
gray.  Pixels are a pure function of the inputs; rendering twice yields
byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .graph import cell_node


class RenderError(Exception):
    pass


# Fixed color scale: blue -> cyan -> yellow -> red anchors at 0, 1/3, 2/3, 1.
_ANCHORS = np.array([
    [0.13, 0.20, 0.60],
    [0.05, 0.65, 0.85],
    [0.95, 0.85, 0.25],
    [0.80, 0.10, 0.05],
])
_OUTSIDE = np.array([0.92, 0.92, 0.92])
_OBSTACLE = np.array([0.0, 0.0, 0.0])
_BORDER = np.array([0.15, 0.15, 0.15])


def colormap(values):
    """Map values in [0, 1] to RGB floats through the fixed anchors."""
    v = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)
    pos = v * (len(_ANCHORS) - 1)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, len(_ANCHORS) - 1)
    frac = (pos - lo)[..., None]
    return _ANCHORS[lo] * (1.0 - frac) + _ANCHORS[hi] * frac


def write_ppm(path, pixels):
    """Write an (H, W, 3) float array in [0, 1] as binary PPM."""
    pixels = np.asarray(pixels, dtype=float)
    data = np.floor(np.clip(pixels, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    height, width = data.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode())
        fh.write(data.tobytes())


def render_heatmap(bounds, k, scenario, path, width=360):
    """Rasterize the partition colored by the k-step bounds to ``path``.

    Requires a 2-D state space with a 2-D position projection.  The raster
    covers the domain bounding box; y grows upward (row 0 is the top).
    """
    if scenario.dynamics.n != 2 or len(scenario.workspace.position_projection) != 2:
        raise RenderError("heatmap rendering needs a 2-D scenario")
    if not (0 <= k <= bounds.horizon):
        raise RenderError(f"horizon {k} outside computed range 0..{bounds.horizon}")
    lo, hi = scenario.workspace.domain.bounding_box()
    span = hi - lo
    height = max(1, int(round(width * span[1] / span[0])))

    xs = lo[0] + (np.arange(width) + 0.5) * span[0] / width
    ys = lo[1] + (np.arange(height) + 0.5) * span[1] / height
    gx, gy = np.meshgrid(xs, ys[::-1])
    points = np.stack([gx.ravel(), gy.ravel()], axis=1)

    cell_idx = scenario.cell_index_many(points)
    values = np.zeros(len(points))
    for i in range(scenario.num_cells):
        values[cell_idx == i] = bounds.per_k[k][cell_node(i)]
    pixels = colormap(values)
    pixels[cell_idx < 0] = _OUTSIDE
    pixels[scenario.workspace.in_obstacle_many(points)] = _OBSTACLE

    grid = cell_idx.reshape(height, width)
    border = np.zeros((height, width), dtype=bool)
    border[:, 1:] |= grid[:, 1:] != grid[:, :-1]
    border[1:, :] |= grid[1:, :] != grid[:-1, :]
    pixels = pixels.reshape(height, width, 3)
    pixels[border] = _BORDER

    write_ppm(path, pixels)
    return path
