"""Desk-scale figures and tables: reconstruction scatter plots, fluctuation
histograms, and summary tables, emitted as standalone SVG / markdown / CSV
with byte-deterministic output (no plotting library)."""

from __future__ import annotations

from html import escape

import numpy as np

from .analysis import ANALYSIS_CHANNELS, HALVES, FluctuationReport, half_slices
from .net import NetworkState, forward
from .runfile import RunManifest
from .shapes import generate
from .train import TRAIN_SAMPLE_COUNT

DATA_FRAME = 1.2  # scatter plots cover [-1.2, 1.2]^2
ORIGINAL_COLOR = "#1f2d3d"
RECONSTRUCTED_COLOR = "#e0482e"
ENCODER_COLOR = "#3c6fb0"
DECODER_COLOR = "#b06f3c"

# the canvas of every scatter and histogram figure
WIDTH, HEIGHT = 800, 600
SCATTER_X_LABEL, SCATTER_Y_LABEL = "x", "y"
HIST_X_LABEL = "per-neuron spread"
STACK_TITLE_HEIGHT = 34

_XML_DECL = '<?xml version="1.0" encoding="UTF-8"?>\n'


def reconstruct(manifest: RunManifest, frame: np.void) -> tuple[np.ndarray, np.ndarray]:
    """Load the network of any one frame of a run and reconstruct the run's
    training set: returns (points, output).  The network's parameters are
    the theta part of the frame's values, widened to f64."""
    cfg, spec = manifest.config, manifest.architecture
    points = generate(cfg.shape, TRAIN_SAMPLE_COUNT, cfg.data_seed)
    net = NetworkState(spec)
    net.theta[...] = frame["values"][: spec.parameter_count]
    return points, forward(net, points).output


def scatter_svg(original: np.ndarray, reconstructed: np.ndarray, title: str) -> bytes:
    """Original vs reconstructed points, two (n, 2) arrays, on an
    equal-aspect [-1.2, 1.2]^2 frame.

    Points outside the frame are clipped onto its border so every marker
    stays inside the viewBox.
    """
    if original.shape != reconstructed.shape:
        raise ValueError(
            f"original {original.shape} and reconstructed {reconstructed.shape} must have equal shapes"
        )
    if original.size == 0:
        raise ValueError("nothing to plot: empty point sets")
    if not (np.isfinite(original).all() and np.isfinite(reconstructed).all()):
        raise ValueError("figure coordinates must be finite")

    w, h = WIDTH, HEIGHT
    m_left, m_right, m_top, m_bottom = 60, 20, 50, 45
    side = min(w - m_left - m_right, h - m_top - m_bottom)
    ox = m_left + (w - m_left - m_right - side) / 2.0
    oy = m_top + (h - m_top - m_bottom - side) / 2.0

    def to_px(x: float, y: float) -> tuple[float, float]:
        x = min(max(x, -DATA_FRAME), DATA_FRAME)
        y = min(max(y, -DATA_FRAME), DATA_FRAME)
        px = ox + (x + DATA_FRAME) / (2 * DATA_FRAME) * side
        py = oy + (DATA_FRAME - y) / (2 * DATA_FRAME) * side
        return px, py

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{w / 2:.1f}" y="28" text-anchor="middle" font-size="18" '
        f'font-family="sans-serif">{escape(title)}</text>',
        f'<rect x="{ox:.2f}" y="{oy:.2f}" width="{side:.2f}" height="{side:.2f}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    for tick in (-1.0, 0.0, 1.0):
        tx, _ = to_px(tick, 0.0)
        _, ty = to_px(0.0, tick)
        lines.append(
            f'<line x1="{tx:.2f}" y1="{oy + side:.2f}" x2="{tx:.2f}" '
            f'y2="{oy + side + 5:.2f}" stroke="#444444" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{tx:.2f}" y="{oy + side + 18:.2f}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{tick:g}</text>'
        )
        lines.append(
            f'<line x1="{ox - 5:.2f}" y1="{ty:.2f}" x2="{ox:.2f}" y2="{ty:.2f}" '
            'stroke="#444444" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{ox - 8:.2f}" y="{ty + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{tick:g}</text>'
        )
    lines.append(
        f'<text x="{ox + side / 2:.2f}" y="{oy + side + 36:.2f}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{escape(SCATTER_X_LABEL)}</text>'
    )
    lines.append(
        f'<text x="{ox - 40:.2f}" y="{oy + side / 2:.2f}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif" '
        f'transform="rotate(-90 {ox - 40:.2f} {oy + side / 2:.2f})">{escape(SCATTER_Y_LABEL)}</text>'
    )
    point_sets = (
        ("original", "m-orig", ORIGINAL_COLOR, original),
        ("reconstructed", "m-reco", RECONSTRUCTED_COLOR, reconstructed),
    )
    for _, marker, color, points in point_sets:
        for x, y in points:
            px, py = to_px(float(x), float(y))
            lines.append(
                f'<circle class="{marker}" cx="{px:.2f}" cy="{py:.2f}" r="2.5" '
                f'fill="{color}" fill-opacity="0.75"/>'
            )
    lx = ox + side - 150
    for i, (label, _, color, _) in enumerate(point_sets):
        ly = oy + 16 + 18 * i
        lines.append(
            f'<circle class="legend-swatch" cx="{lx:.2f}" cy="{ly:.2f}" r="4" fill="{color}"/>'
        )
        lines.append(
            f'<text x="{lx + 10:.2f}" y="{ly + 4:.2f}" font-size="12" '
            f'font-family="sans-serif">{label}</text>'
        )
    lines.append("</svg>")
    return (_XML_DECL + "\n".join(lines) + "\n").encode("utf-8")


def _hist_panel(
    lines: list[str],
    edges: list[float],
    counts: list[int],
    x0: float,
    y0: float,
    pw: float,
    ph: float,
    color: str,
    caption: str,
) -> None:
    max_count = max(counts)
    lines.append(
        f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{pw:.2f}" height="{ph:.2f}" '
        'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    lines.append(
        f'<text x="{x0 + pw / 2:.2f}" y="{y0 - 6:.2f}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{escape(caption)}</text>'
    )
    degenerate = edges[0] == edges[-1]
    span = (edges[-1] - edges[0]) or 1.0
    for i, count in enumerate(counts):
        if degenerate:
            bx, bw = x0, pw
        else:
            bx = x0 + (edges[i] - edges[0]) / span * pw
            bw = (edges[i + 1] - edges[i]) / span * pw
        bh = ph * count / max_count if max_count else 0.0
        lines.append(
            f'<rect class="bar" data-count="{count}" x="{bx:.2f}" y="{y0 + ph - bh:.2f}" '
            f'width="{bw:.2f}" height="{bh:.2f}" fill="{color}" stroke="#ffffff" '
            'stroke-width="0.5"/>'
        )
        if count > 0:
            lines.append(
                f'<text class="bar-label" x="{bx + bw / 2:.2f}" y="{y0 + ph - bh - 2:.2f}" '
                f'text-anchor="middle" font-size="8" font-family="sans-serif">{count}</text>'
            )
    n_ticks = min(5, len(edges))
    for j in np.linspace(0, len(edges) - 1, n_ticks).round().astype(int):
        tx = x0 if degenerate else x0 + (edges[j] - edges[0]) / span * pw
        lines.append(
            f'<line x1="{tx:.2f}" y1="{y0 + ph:.2f}" x2="{tx:.2f}" y2="{y0 + ph + 4:.2f}" '
            'stroke="#444444" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{tx:.2f}" y="{y0 + ph + 15:.2f}" text-anchor="middle" '
            f'font-size="9" font-family="sans-serif">{edges[j]:.3g}</text>'
        )


def hist_svg(report: FluctuationReport, channel: str, title: str) -> bytes:
    """Side-by-side encoder/decoder spread histograms for one channel."""
    if channel not in report.channels:
        raise ValueError(f"channel {channel!r} not present in report")
    stats = report.channels[channel]
    w, h = WIDTH, HEIGHT
    m_left, m_gap, m_right, m_top, m_bottom = 45, 50, 20, 70, 50
    pw = (w - m_left - m_gap - m_right) / 2.0
    ph = h - m_top - m_bottom
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{w / 2:.1f}" y="26" text-anchor="middle" font-size="17" '
        f'font-family="sans-serif">{escape(title)}</text>',
        f'<text x="{w / 2:.1f}" y="{h - 14:.1f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">{escape(HIST_X_LABEL)}</text>',
    ]
    for i, (half, color) in enumerate(zip(HALVES, (ENCODER_COLOR, DECODER_COLOR))):
        hs = stats.halves[half]
        x0 = m_left + i * (pw + m_gap)
        _hist_panel(lines, hs.hist_edges, hs.hist_counts, x0, m_top, pw, ph, color, half)
    lines.append("</svg>")
    return (_XML_DECL + "\n".join(lines) + "\n").encode("utf-8")


def fluctuation_table(report: FluctuationReport) -> tuple[bytes, bytes]:
    """Per (channel, half) summary as (markdown bytes, CSV bytes).

    Both views are derived from the same report values; the CSV keeps full
    float precision.
    """
    header = [
        "channel",
        "half",
        "neurons",
        "inactive",
        "min_spread",
        "median_spread",
        "max_spread",
        "spread_of_spread",
    ]
    parts = half_slices(report.architecture)
    rows = []
    for ch in ANALYSIS_CHANNELS:
        stats = report.channels[ch]
        for half in HALVES:
            vals = stats.spreads[parts[half]]
            hs = stats.halves[half]
            rows.append(
                [
                    ch,
                    half,
                    int(vals.size),
                    hs.inactive_count,
                    float(vals.min()),
                    float(np.median(vals)),
                    float(vals.max()),
                    hs.spread_of_spread,
                ]
            )
    md_lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        cells = [f"{v:.9g}" if isinstance(v, float) else str(v) for v in row]
        md_lines.append("| " + " | ".join(cells) + " |")
    csv_lines = [",".join(header)]
    for row in rows:
        csv_lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return (
        ("\n".join(md_lines) + "\n").encode("utf-8"),
        ("\n".join(csv_lines) + "\n").encode("utf-8"),
    )


def stack_svgs(children: list[bytes], title: str) -> bytes:
    """Stack hist_svg documents, each WIDTH x HEIGHT, vertically into one
    composite SVG."""
    if not children:
        raise ValueError("nothing to stack")
    height = STACK_TITLE_HEIGHT + len(children) * HEIGHT
    parts = [
        _XML_DECL
        + f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}">',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="19" '
        f'font-family="sans-serif">{escape(title)}</text>',
    ]
    for i, child in enumerate(children):
        body = child.decode("utf-8").removeprefix(_XML_DECL)
        y = STACK_TITLE_HEIGHT + i * HEIGHT
        parts.append(body.replace("<svg ", f'<svg x="0" y="{y}" ', 1))
    parts.append("</svg>\n")
    return "\n".join(parts).encode("utf-8")
