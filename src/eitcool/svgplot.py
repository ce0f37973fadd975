"""Static SVG line charts for sweep results.

Hand-rolled on purpose: the output is a deterministic, diffable text file
with one polyline per estimator and a log-scaled occupation axis, and it
keeps the package free of plotting dependencies.
"""

from __future__ import annotations

import math

from .errors import NumericalFailureError
from .sweep import REGISTRY, SweepRow

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 30, 50


def _log_ticks(lo: float, hi: float) -> list[float]:
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0**k for k in range(first, last + 1)]


def write_svg(
    rows: list[SweepRow],
    estimators: tuple[str, ...],
    path: str,
) -> None:
    """Render one polyline per estimator; points without a value are skipped."""
    series = {
        est: [(r.value, r.nbar[est]) for r in rows if est in r.nbar and r.nbar[est] > 0]
        for est in estimators
    }
    points = [pt for pts in series.values() for pt in pts]
    if not points:
        raise NumericalFailureError("nothing to plot: no estimator produced a value")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo, y_hi = min(ys) / 1.5, max(ys) * 1.5

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def sy(y: float) -> float:
        frac = (math.log10(y) - math.log10(y_lo)) / (
            math.log10(y_hi) - math.log10(y_lo)
        )
        return MARGIN_T + plot_h * (1.0 - frac)

    vary = rows[0].vary if rows else "value"
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]

    for tick in _log_ticks(y_lo, y_hi):
        if tick < y_lo or tick > y_hi:
            continue
        y = sy(tick)
        exponent = round(math.log10(tick))
        out.append(
            f'<line x1="{MARGIN_L}" y1="{y:.2f}" x2="{MARGIN_L + plot_w}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{exponent}</text>'
        )

    n_xticks = 5
    for k in range(n_xticks + 1):
        x_val = x_lo + (x_hi - x_lo) * k / n_xticks
        x = sx(x_val)
        out.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x_val:g}</text>'
        )
    out.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{vary}</text>'
    )
    out.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">mean phonon number</text>'
    )

    legend_y = MARGIN_T + 10
    for est in (REGISTRY[name] for name in estimators):
        pts = series[est.name]
        color = est.color
        if pts:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                'stroke-width="1.8"/>'
            )
            for x, y in pts:
                out.append(
                    f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.4" fill="{color}"/>'
                )
        lx = MARGIN_L + plot_w + 12
        out.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        out.append(
            f'<text x="{lx + 27}" y="{legend_y + 4}" font-family="sans-serif" '
            f'font-size="11">{est.label}</text>'
        )
        legend_y += 18

    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
