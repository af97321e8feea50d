"""Machine-readable output: JSON result envelopes, CSV tables, SVG plots.

Computation stays exact; SVG coordinates alone are rendered as decimals at
1e-6 presentation precision.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path


def result_envelope(command: str, status: str, payload: dict, provenance: list[str]) -> dict:
    return {
        "command": command,
        "status": status,
        "payload": payload,
        "provenance": sorted(set(provenance)),
    }


def write_json(path: str, document: dict) -> None:
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")


def write_csv(path: str, header: tuple[str, ...], rows) -> None:
    """Comma-separated rows under `header`; fractions keep their exact p/q form."""
    lines = [",".join(header)] + [",".join(str(cell) for cell in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


_W, _H, _PAD = 640, 400, 40


def write_polyline_svg(path: str, points: list[tuple[Fraction, Fraction]], title: str) -> None:
    """Static polyline plot of a PL function on [0,2]."""
    vs = [v for _, v in points]
    lo, hi = min(vs + [Fraction(0)]), max(vs + [Fraction(0)])
    if lo == hi:
        hi = lo + 1
    span_x = Fraction(2)
    span_y = hi - lo

    def px(t: Fraction) -> float:
        return float(_PAD + (_W - 2 * _PAD) * t / span_x)

    def py(v: Fraction) -> float:
        return float(_H - _PAD - (_H - 2 * _PAD) * (v - lo) / span_y)

    poly = " ".join(f"{px(t):.6f},{py(v):.6f}" for t, v in points)
    zero_y = py(Fraction(0))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<title>{title}</title>',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_PAD}" y1="{zero_y:.6f}" x2="{_W - _PAD}" y2="{zero_y:.6f}" '
        'stroke="#999" stroke-width="1"/>',
        f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_H - _PAD}" '
        'stroke="#999" stroke-width="1"/>',
        f'<polyline points="{poly}" fill="none" stroke="#1f4e9c" stroke-width="2"/>',
        f'<text x="{_PAD}" y="{_PAD - 12}" font-family="monospace" font-size="13">{title}</text>',
        f'<text x="{_W - _PAD - 10}" y="{_H - _PAD + 24}" font-family="monospace" font-size="12">t=2</text>',
        f'<text x="{_PAD - 6}" y="{_H - _PAD + 24}" font-family="monospace" font-size="12">0</text>',
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts) + "\n")
