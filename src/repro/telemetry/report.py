"""Plain-text rendering of benchmark series.

The figure commands (``python -m repro fig3`` and friends) and the
benchmark scripts print the series the paper's figures plot; these
helpers render them as aligned tables and block-character charts so
shapes (full utilization vs saw-tooth) are visible in terminal output.
"""

from __future__ import annotations

from collections.abc import Sequence

_BLOCKS = " ▁▂▃▄▅▆▇█"


def ascii_chart(
    values: Sequence[float],
    max_value: float | None = None,
    width: int = 80,
    label: str = "",
) -> str:
    """A one-line block chart of ``values`` scaled to ``max_value``.

    Values are resampled to ``width`` columns by averaging.
    """
    import numpy as np  # here, not at import: the task plane renders tables only

    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return f"{label} (no data)"
    top = max_value if max_value is not None else float(arr.max())
    if top <= 0:
        top = 1.0
    if arr.size > width:
        # Average into `width` buckets.
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array([arr[a:b].mean() if b > a else 0.0 for a, b in zip(edges[:-1], edges[1:])])
    scaled = np.clip(arr / top, 0.0, 1.0) * (len(_BLOCKS) - 1)
    chars = "".join(_BLOCKS[int(round(v))] for v in scaled)
    prefix = f"{label} " if label else ""
    return f"{prefix}|{chars}| max={top:g}"


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], floatfmt: str = ".3f"
) -> str:
    """A simple aligned text table."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return format(value, floatfmt)
        return str(value)

    text_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows)) if text_rows else len(headers[i])
        for i in range(len(headers))
    ]
    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(r) for r in text_rows)
    return "\n".join(out)
