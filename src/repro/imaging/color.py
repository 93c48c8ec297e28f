"""Colour-space conversion and colour histograms.

The paper's colour descriptor: "images were processed in the HSV color
space, and the color histogram was divided into 20, 20, and 10 bins in
H, S, and V, respectively" — 50 dimensions total (per-channel
histograms concatenated).
"""

from __future__ import annotations

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
    # One pass over all three channels, by np.histogram's rule for
    # uniform bins over [0, 1] (which every HSV value of a valid image
    # is in): truncate value * bins, fold the right edge into the last
    # bin, then correct the ~1 ulp cases against the linspace edges.
    # Channel c's edges and bins sit at edge_start[c] / bin_start[c] of
    # the concatenated layout, so one bincount counts all three.
    hsv = rgb_to_hsv(image.pixels).reshape(-1, 3)
    counts = np.array(bins)
    edges = np.concatenate([np.linspace(0.0, 1.0, n + 1) for n in bins])
    bin_start = np.cumsum(counts) - counts
    edge_start = bin_start + np.arange(3)
    last = counts - 1
    index = np.minimum((hsv * counts).astype(np.intp), last)
    index -= hsv < edges[index + edge_start]
    index += (hsv >= edges[index + edge_start + 1]) & (index != last)
    vector = np.bincount((index + bin_start).ravel(), minlength=sum(bins)).astype(
        np.float64
    )
    if normalize:
        total = image.height * image.width
        vector = vector / float(total)
    return vector


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
