"""Deterministic SVG and ASCII drawings of block partitions."""

from __future__ import annotations

from fractions import Fraction

from .geometry import BlockPartition, dyadic_level, is_dyadic_fraction

SVG_SIZE = 480
SVG_MARGIN = 10
# The ASCII grid has (2 den + 1) x (4 den + 1) cells: about 100 MB at 1024,
# and 16 times as much for every two further halvings.
ASCII_MAX_DEN = 1024


def _decimal(value: Fraction) -> str:
    """Exact finite decimal for a dyadic rational (denominators are 2^k)."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    k = dyadic_level(value)
    digits = num * 5**k  # num/2^k == num*5^k / 10^k
    text = str(digits).rjust(k + 1, "0")
    whole, frac = text[:-k], text[-k:]
    return f"{whole}.{frac}".rstrip("0").rstrip(".")


def _require_dyadic(p: BlockPartition) -> None:
    if not is_dyadic_fraction(Fraction(1, p.den)):
        raise ValueError(
            f"cannot draw a partition over denominator {p.den}: "
            "coordinates must be dyadic (a/2^b)"
        )


def partition_svg(p: BlockPartition) -> str:
    """Blocks as rectangles, labels centered; byte-stable for fixed input.

    Raises ValueError when coordinates are not dyadic.
    """
    _require_dyadic(p)
    span = SVG_SIZE - 2 * SVG_MARGIN
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">'
    ]

    def sx(x: Fraction) -> str:
        return _decimal(SVG_MARGIN + x * span)

    def sy(y: Fraction) -> str:
        return _decimal(SVG_MARGIN + (1 - y) * span)

    for b in p.blocks:
        width = _decimal((b.x2 - b.x1) * span)
        height = _decimal((b.y2 - b.y1) * span)
        out.append(
            f'<rect x="{sx(b.x1)}" y="{sy(b.y2)}" width="{width}" height="{height}" '
            f'fill="white" stroke="black" stroke-width="2"/>'
        )
    for b in p.blocks:
        if b.label is None:
            continue
        cx = _decimal(SVG_MARGIN + (b.x1 + b.x2) / 2 * span)
        cy = _decimal(SVG_MARGIN + (1 - (b.y1 + b.y2) / 2) * span)
        out.append(
            f'<text x="{cx}" y="{cy}" font-family="monospace" font-size="18" '
            f'text-anchor="middle" dominant-baseline="middle">{b.label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def partition_ascii(p: BlockPartition) -> str:
    """Character-grid drawing; rows run north to south.

    Raises ValueError when coordinates are not dyadic or finer than
    ``1/ASCII_MAX_DEN``, or when a label is wider than its block's inside.
    """
    _require_dyadic(p)
    if p.den > ASCII_MAX_DEN:
        raise ValueError(
            f"partition over denominator {p.den} is too fine to draw as text "
            f"(at most {ASCII_MAX_DEN}); use --format svg"
        )
    resolution = p.den
    cols = 4 * resolution
    rows = 2 * resolution
    width, height = cols + 1, rows + 1
    grid = [[" "] * width for _ in range(height)]

    def col(x: Fraction) -> int:
        return int(x * cols)

    def row(y: Fraction) -> int:
        return int((1 - y) * rows)

    for b in p.blocks:
        c1, c2 = col(b.x1), col(b.x2)
        r1, r2 = row(b.y2), row(b.y1)
        for c in range(c1, c2 + 1):
            grid[r1][c] = "-"
            grid[r2][c] = "-"
        for r in range(r1, r2 + 1):
            grid[r][c1] = "|"
            grid[r][c2] = "|"
    # corners last so edges of neighbouring blocks cannot overpaint them
    for b in p.blocks:
        c1, c2 = col(b.x1), col(b.x2)
        r1, r2 = row(b.y2), row(b.y1)
        for r, c in ((r1, c1), (r1, c2), (r2, c1), (r2, c2)):
            grid[r][c] = "+"
    for b in p.blocks:
        if b.label is None:
            continue
        text = str(b.label)
        r = (row(b.y2) + row(b.y1)) // 2
        c = (col(b.x1) + col(b.x2)) // 2 - len(text) // 2
        if c <= col(b.x1) or c + len(text) > col(b.x2):
            raise ValueError(f"label {text} is too wide to draw as text; use --format svg")
        for k, ch in enumerate(text):
            grid[r][c + k] = ch
    return "\n".join("".join(line).rstrip() for line in grid) + "\n"
