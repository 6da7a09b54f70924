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
_AXIS = 'stroke="#444444" stroke-width="1"'


def _text(x: str, y: str, size: int, body: str, anchor: str | None = "middle", tail: str = "") -> str:
    """One sans-serif text element of body, escaped; the caller formats x and y."""
    at = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}"{at} font-size="{size}" font-family="sans-serif"{tail}>'
        f"{escape(body)}</text>"
    )


def _document(width: int, height: int, title: str, title_y: int, title_size: int) -> list[str]:
    """The opening lines of a figure: the root element, a white ground and the title."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        _text(f"{width / 2:.1f}", str(title_y), title_size, title),
    ]


def _finish(lines: list[str]) -> bytes:
    """The document of lines, closed, as the bytes of an SVG file."""
    return (_XML_DECL + "\n".join([*lines, "</svg>"]) + "\n").encode("utf-8")


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

    lines = _document(w, h, title, 28, 18)
    lines.append(
        f'<rect x="{ox:.2f}" y="{oy:.2f}" width="{side:.2f}" height="{side:.2f}" fill="none" {_AXIS}/>'
    )
    for tick in (-1.0, 0.0, 1.0):
        tx, _ = to_px(tick, 0.0)
        _, ty = to_px(0.0, tick)
        lines += [
            f'<line x1="{tx:.2f}" y1="{oy + side:.2f}" x2="{tx:.2f}" y2="{oy + side + 5:.2f}" {_AXIS}/>',
            _text(f"{tx:.2f}", f"{oy + side + 18:.2f}", 11, f"{tick:g}"),
            f'<line x1="{ox - 5:.2f}" y1="{ty:.2f}" x2="{ox:.2f}" y2="{ty:.2f}" {_AXIS}/>',
            _text(f"{ox - 8:.2f}", f"{ty + 4:.2f}", 11, f"{tick:g}", anchor="end"),
        ]
    lines.append(_text(f"{ox + side / 2:.2f}", f"{oy + side + 36:.2f}", 13, SCATTER_X_LABEL))
    label_x, label_y = f"{ox - 40:.2f}", f"{oy + side / 2:.2f}"
    turn = f' transform="rotate(-90 {label_x} {label_y})"'
    lines.append(_text(label_x, label_y, 13, SCATTER_Y_LABEL, tail=turn))
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
        lines += [
            f'<circle class="legend-swatch" cx="{lx:.2f}" cy="{ly:.2f}" r="4" fill="{color}"/>',
            _text(f"{lx + 10:.2f}", f"{ly + 4:.2f}", 12, label, anchor=None),
        ]
    return _finish(lines)


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
    lines += [
        f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{pw:.2f}" height="{ph:.2f}" fill="none" {_AXIS}/>',
        _text(f"{x0 + pw / 2:.2f}", f"{y0 - 6:.2f}", 13, caption),
    ]
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
        lines += [
            f'<line x1="{tx:.2f}" y1="{y0 + ph:.2f}" x2="{tx:.2f}" y2="{y0 + ph + 4:.2f}" {_AXIS}/>',
            _text(f"{tx:.2f}", f"{y0 + ph + 15:.2f}", 9, f"{edges[j]:.3g}"),
        ]


def hist_svg(report: FluctuationReport, channel: str, title: str) -> bytes:
    """Side-by-side encoder/decoder spread histograms for one channel."""
    if channel not in report.channels:
        raise ValueError(f"channel {channel!r} not present in report")
    stats = report.channels[channel]
    w, h = WIDTH, HEIGHT
    m_left, m_gap, m_right, m_top, m_bottom = 45, 50, 20, 70, 50
    pw = (w - m_left - m_gap - m_right) / 2.0
    ph = h - m_top - m_bottom
    lines = _document(w, h, title, 26, 17)
    lines.append(_text(f"{w / 2:.1f}", f"{h - 14:.1f}", 12, HIST_X_LABEL))
    for i, (half, color) in enumerate(zip(HALVES, (ENCODER_COLOR, DECODER_COLOR))):
        hs = stats.halves[half]
        x0 = m_left + i * (pw + m_gap)
        _hist_panel(lines, hs.hist_edges, hs.hist_counts, x0, m_top, pw, ph, color, half)
    return _finish(lines)


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
    parts = half_slices(report.manifest.architecture)
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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}">',
        _text(f"{WIDTH / 2:.1f}", "24", 19, title),
    ]
    for i, child in enumerate(children):
        body = child.decode("utf-8").removeprefix(_XML_DECL)
        y = STACK_TITLE_HEIGHT + i * HEIGHT
        parts.append(body.replace("<svg ", f'<svg x="0" y="{y}" ', 1))
    return _finish(parts)
