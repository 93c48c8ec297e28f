"""Colour-space conversion and colour histograms.

The paper's colour descriptor: "images were processed in the HSV color
space, and the color histogram was divided into 20, 20, and 10 bins in
H, S, and V, respectively" — 50 dimensions total (per-channel
histograms concatenated).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import ImagingError
from repro.imaging.image import Image

#: The paper's HSV bin layout: 20 H bins, 20 S bins, 10 V bins.
PAPER_HSV_BINS = (20, 20, 10)


def rgb_to_hsv(pixels: np.ndarray) -> np.ndarray:
    """Vectorised RGB→HSV for an (..., 3) array of floats in [0, 1].

    Output channels: H in [0, 1) (scaled from 0-360 degrees),
    S in [0, 1], V in [0, 1] — matching ``colorsys`` conventions.
    """
    px = np.asarray(pixels, dtype=np.float64)
    if px.shape[-1] != 3:
        raise ImagingError(f"expected trailing RGB axis of size 3, got {px.shape}")
    r, g, b = px[..., 0], px[..., 1], px[..., 2]
    maxc = np.maximum(np.maximum(r, g), b)
    minc = np.minimum(np.minimum(r, g), b)
    value = maxc
    delta = maxc - minc
    sat = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)

    # Hue: piecewise by which channel is the max.
    safe_delta = np.where(delta > 0, delta, 1.0)
    rc = (maxc - r) / safe_delta
    gc = (maxc - g) / safe_delta
    bc = (maxc - b) / safe_delta
    hue = np.where(
        maxc == r,
        bc - gc,
        np.where(maxc == g, 2.0 + rc - bc, 4.0 + gc - rc),
    )
    hue = (hue / 6.0) % 1.0
    hue = np.where(delta > 0, hue, 0.0)
    return np.stack([hue, sat, value], axis=-1)


def hsv_to_rgb(pixels: np.ndarray) -> np.ndarray:
    """Vectorised HSV→RGB, the inverse of :func:`rgb_to_hsv`."""
    px = np.asarray(pixels, dtype=np.float64)
    if px.shape[-1] != 3:
        raise ImagingError(f"expected trailing HSV axis of size 3, got {px.shape}")
    h, s, v = px[..., 0], px[..., 1], px[..., 2]
    i = np.floor(h * 6.0).astype(int) % 6
    f = h * 6.0 - np.floor(h * 6.0)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b], axis=-1)


def hsv_histogram(
    image: Image,
    bins: tuple[int, int, int] = PAPER_HSV_BINS,
    normalize: bool = True,
) -> np.ndarray:
    """Concatenated per-channel HSV histogram (paper's colour feature).

    With the default bins the vector is 20 + 20 + 10 = 50-dimensional.
    ``normalize=True`` divides by the pixel count so images of
    different sizes are comparable.
    """
    if any(b < 1 for b in bins):
        raise ImagingError(f"all bin counts must be >= 1, got {bins}")
    counts, edges, edge_start, bin_start, sat_bins, value_bins = _layout(tuple(bins))
    if image._bytes is None:
        hsv = rgb_to_hsv(image.pixels).reshape(-1, 3)
        index = _bin_index(hsv, counts, edges, edge_start) + bin_start
    else:
        # A byte-born pixel's S and V bins are table reads by its max and
        # min byte; H is rgb_to_hsv's own float arithmetic, where a grey
        # pixel's bc - gc is already the 0 it masks in.
        rgb8 = image._bytes.reshape(-1, 3)
        high8, low8 = rgb8.max(axis=1), rgb8.min(axis=1)
        rgb, maxc = rgb8 / 255.0, high8 / 255.0
        delta = maxc - low8 / 255.0
        rc, gc, bc = ((maxc[:, None] - rgb) / np.where(delta > 0, delta, 1.0)[:, None]).T
        hue = np.where(high8 == rgb8[:, 1], 2.0 + rc - bc, 4.0 + gc - rc)
        hue = (np.where(high8 == rgb8[:, 0], bc - gc, hue) / 6.0) % 1.0
        index = np.concatenate([
            _bin_index(hue, counts[0], edges, 0),
            sat_bins[high8.astype(np.intp) * 256 + low8],
            value_bins[high8],
        ])
    vector = np.bincount(index.ravel(), minlength=sum(bins)).astype(np.float64)
    if normalize:
        total = image.height * image.width
        vector = vector / float(total)
    return vector


@functools.lru_cache(maxsize=8)
def _layout(bins: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
    """One ``bins`` tuple's layout: the channels' edges concatenated (c's
    at ``edge_start[c]``, its bins at ``bin_start[c]``), then the S bin of
    every ``max * 256 + min`` byte pair and the V bin of every max byte,
    by rgb_to_hsv's float arithmetic on the levels bytes read as."""
    counts = np.array(bins)
    edges = np.concatenate([np.linspace(0.0, 1.0, n + 1) for n in bins])
    bin_start = np.cumsum(counts) - counts
    edge_start = bin_start + np.arange(3)
    levels = np.arange(256) / 255.0
    high, low = levels[:, None], np.minimum(levels[None, :], levels[:, None])
    sat = np.where(high > 0, (high - low) / np.where(high > 0, high, 1.0), 0.0)
    sat_bins = _bin_index(sat.ravel(), counts[1], edges[edge_start[1]:], 0)
    value_bins = _bin_index(levels, counts[2], edges[edge_start[2]:], 0)
    layout = (
        counts, edges, edge_start, bin_start, sat_bins + bin_start[1], value_bins + bin_start[2]
    )
    for array in layout:  # shared by every caller with these bins
        array.setflags(write=False)
    return layout


def _bin_index(values, counts, edges, edge_start) -> np.ndarray:
    """Bin of each value, by np.histogram's rule for uniform bins over
    [0, 1] (which every HSV value of a valid image is in): truncate
    value * bins, fold the right edge into the last bin, then correct
    the ~1 ulp cases against the linspace edges."""
    last = counts - 1
    index = np.minimum((values * counts).astype(np.intp), last)
    index -= values < edges[index + edge_start]
    index += (values >= edges[index + edge_start + 1]) & (index != last)
    return index


def joint_hsv_histogram(
    image: Image,
    bins: tuple[int, int, int] = (8, 4, 4),
    normalize: bool = True,
) -> np.ndarray:
    """Joint 3-D HSV histogram, flattened.

    A richer (but higher-dimensional) alternative to the per-channel
    histogram; exposed for ablation benches.
    """
    hsv = rgb_to_hsv(image.pixels).reshape(-1, 3)
    hist, _ = np.histogramdd(
        hsv, bins=bins, range=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    )
    vector = hist.ravel().astype(np.float64)
    if normalize:
        vector = vector / float(image.height * image.width)
    return vector
