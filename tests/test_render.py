"""Heatmap raster: fixed color scale, obstacle/boundary marks, determinism."""

import hashlib

import numpy as np
import pytest

from relusafe import graph as gr
from relusafe import render
from relusafe import verifier as vf


def flat_bounds(scenario, value, horizon=0):
    per_k = [{gr.cell_node(i): value for i in range(scenario.num_cells)}
             for _ in range(horizon + 1)]
    for level in per_k:
        level[gr.UNSAFE] = 1.0
    return vf.SafetyBounds(horizon=horizon, merge_p=None, mode="naive",
                           per_k=per_k)


def read_ppm(path):
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        dims = fh.readline().split()
        maxval = fh.readline().strip()
        data = fh.read()
    width, height = int(dims[0]), int(dims[1])
    assert magic == b"P6" and maxval == b"255"
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3)


def test_all_zero_bounds_uniform_low_color(demo_scenario, tmp_path):
    path = tmp_path / "zero.ppm"
    render.render_heatmap(flat_bounds(demo_scenario, 0.0), 0, demo_scenario, path)
    img = read_ppm(path)
    low = np.floor(np.clip(render.colormap(0.0), 0, 1) * 255 + 0.5).astype(np.uint8)
    # Interior pixels away from borders/obstacle carry exactly the low color.
    probe = img[10, 10]
    assert np.array_equal(probe, low)


def test_p0_map_extremes(demo_scenario, tmp_path):
    bounds = vf.SafetyBounds(horizon=0, merge_p=None, mode="naive",
                             per_k=[vf.init_p0(demo_scenario)])
    path = tmp_path / "p0.ppm"
    render.render_heatmap(bounds, 0, demo_scenario, path, width=250)
    img = read_ppm(path)
    high = np.floor(np.clip(render.colormap(1.0), 0, 1) * 255 + 0.5).astype(np.uint8)
    low = np.floor(np.clip(render.colormap(0.0), 0, 1) * 255 + 0.5).astype(np.uint8)
    # Obstacle cell 16 spans x in [6,8], y in [2,4]: probe just outside the
    # black obstacle box but inside the cell.
    height, width = img.shape[:2]
    col = int((6.2 / 10) * width)
    row = height - 1 - int((3.8 / 10) * height)
    assert np.array_equal(img[row, col], high)
    col_safe = int((1.0 / 10) * width)
    row_safe = height - 1 - int((1.0 / 10) * height)
    assert np.array_equal(img[row_safe, col_safe], low)
    # Obstacle interior is black.
    col_obs = int((7.0 / 10) * width)
    row_obs = height - 1 - int((3.0 / 10) * height)
    assert np.array_equal(img[row_obs, col_obs], [0, 0, 0])


def test_render_byte_identical(demo_scenario, demo_bounds, tmp_path):
    bounds = demo_bounds["merge+tpn"]
    a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
    render.render_heatmap(bounds, 6, demo_scenario, a)
    render.render_heatmap(bounds, 6, demo_scenario, b)
    assert a.read_bytes() == b.read_bytes()
    assert hashlib.sha256(a.read_bytes()).hexdigest() == (
        "fd440ba65ecef66224c4bf759f05c6f216bd4d38fb8a1f4fe44e7448bb6526ce")
    render.render_heatmap(bounds, 9, demo_scenario, a)
    assert hashlib.sha256(a.read_bytes()).hexdigest() == (
        "5a8e8591e220bcda8da63bf68d1cfc37993d2c49692a967920d9040223c071ef")


def test_render_rejects_bad_horizon(demo_scenario):
    with pytest.raises(render.RenderError):
        render.render_heatmap(flat_bounds(demo_scenario, 0.0), 3,
                              demo_scenario, "/tmp/never.ppm")


def test_render_rejects_non_2d():
    import json

    from relusafe import scenario as sc
    from tests.test_scenario import MINIMAL_DOC

    one_d = sc.load_scenario(json.dumps(MINIMAL_DOC))
    with pytest.raises(render.RenderError):
        render.render_heatmap(flat_bounds(one_d, 0.0), 0, one_d, "/tmp/never.ppm")
