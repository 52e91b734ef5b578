"""Bar-chart rendering of a composition: ASCII or standalone SVG.

Output is deterministic byte-for-byte for a given composition.
"""

from __future__ import annotations

from .core import TermsLike, as_terms


def render_ascii(c: TermsLike) -> str:
    """One text column per term; column height equals the term value."""
    terms = as_terms(c)
    height = max(terms)
    lines = []
    for level in range(height, 0, -1):
        lines.append("".join("#" if t >= level else " " for t in terms))
    lines.append("-" * len(terms))
    return "\n".join(lines) + "\n"


def render_svg(c: TermsLike, bar_width: int = 10, unit: int = 10,
               pad: int = 5) -> str:
    """Standalone SVG bar chart; one rect per nonzero term plus a baseline."""
    terms = as_terms(c)
    n = len(terms)
    height = max(max(terms), 1) * unit
    width = n * bar_width
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width + 2 * pad}" height="{height + 2 * pad}" '
        f'viewBox="0 0 {width + 2 * pad} {height + 2 * pad}">',
    ]
    for i, t in enumerate(terms):
        if t == 0:
            continue
        x = pad + i * bar_width
        y = pad + height - t * unit
        parts.append(f'<rect x="{x}" y="{y}" width="{bar_width - 1}" '
                     f'height="{t * unit}" fill="black"/>')
    parts.append(f'<line x1="{pad}" y1="{pad + height}" x2="{pad + width}" '
                 f'y2="{pad + height}" stroke="black" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
