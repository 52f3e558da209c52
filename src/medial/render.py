"""Deterministic SVG and ASCII drawings of block partitions."""

from __future__ import annotations

from fractions import Fraction

from .geometry import BlockPartition, is_dyadic_fraction

SVG_SIZE = 480
SVG_MARGIN = 10
# The ASCII grid has (2 den + 1) x (4 den + 1) cells: about 100 MB at 1024,
# and 16 times as much for every two further halvings.
ASCII_MAX_DEN = 1024


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
    den = p.den
    span = SVG_SIZE - 2 * SVG_MARGIN
    # a half step of the grid is span / 2^e pixels, so every pixel value is
    # a decimal with at most e digits after the point
    e = (2 * den).bit_length() - 1
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">'
    ]

    def pixels(units: int, margin: int = SVG_MARGIN) -> str:
        """``margin`` plus ``units`` half steps of the grid, in pixels, as
        the shortest exact decimal; y counts down from the north side."""
        whole, frac = divmod((2 * den * margin + units * span) * 5**e, 10**e)
        return f"{whole}.{frac:0{e}d}".rstrip("0").rstrip(".")

    for x1, x2, y1, y2, _ in p.cells:
        out.append(
            f'<rect x="{pixels(2 * x1)}" y="{pixels(2 * (den - y2))}" '
            f'width="{pixels(2 * (x2 - x1), 0)}" height="{pixels(2 * (y2 - y1), 0)}" '
            f'fill="white" stroke="black" stroke-width="2"/>'
        )
    for x1, x2, y1, y2, label in p.cells:
        if label is None:
            continue
        out.append(
            f'<text x="{pixels(x1 + x2)}" y="{pixels(2 * den - y1 - y2)}" '
            f'font-family="monospace" font-size="18" text-anchor="middle" '
            f'dominant-baseline="middle">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def partition_ascii(p: BlockPartition) -> str:
    """Character-grid drawing; rows run north to south.

    Raises ValueError when coordinates are not dyadic or finer than
    ``1/ASCII_MAX_DEN``, or when a label is wider than its block's inside.
    """
    _require_dyadic(p)
    den = p.den
    if den > ASCII_MAX_DEN:
        raise ValueError(
            f"partition over denominator {den} is too fine to draw as text "
            f"(at most {ASCII_MAX_DEN}); use --format svg"
        )
    grid = [[" "] * (4 * den + 1) for _ in range(2 * den + 1)]
    # a grid unit is four columns wide and two rows high: a cell's columns
    # run from c1 to c2 and its rows from r1 (north) to r2 (south)
    frames = [
        (4 * x1, 4 * x2, 2 * (den - y2), 2 * (den - y1), label)
        for x1, x2, y1, y2, label in p.cells
    ]
    for c1, c2, r1, r2, _ in frames:
        for c in range(c1, c2 + 1):
            grid[r1][c] = "-"
            grid[r2][c] = "-"
        for r in range(r1, r2 + 1):
            grid[r][c1] = "|"
            grid[r][c2] = "|"
    # corners and labels last so edges of neighbouring blocks cannot
    # overpaint them; a label lies inside its block, clear of every corner
    for c1, c2, r1, r2, label in frames:
        for r, c in ((r1, c1), (r1, c2), (r2, c1), (r2, c2)):
            grid[r][c] = "+"
        if label is None:
            continue
        text = str(label)
        r = (r1 + r2) // 2
        c = (c1 + c2) // 2 - len(text) // 2
        if c <= c1 or c + len(text) > c2:
            raise ValueError(f"label {text} is too wide to draw as text; use --format svg")
        for k, ch in enumerate(text):
            grid[r][c + k] = ch
    return "\n".join("".join(line).rstrip() for line in grid) + "\n"
