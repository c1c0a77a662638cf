"""ASCII plotting for the report: the Fig. 2 speedup curve.

The repository has no plotting dependency; these renderers produce
terminal/markdown-friendly charts that preserve the figures' shape (the
quantitative assertions live in the benchmark harness).
"""

from __future__ import annotations

from typing import Sequence

from repro.perf.scaling import ScalingPoint

__all__ = ["render_scaling_plot"]


def render_scaling_plot(points: Sequence[ScalingPoint],
                        width: int = 48, height: int = 12) -> str:
    """Render the Fig. 2 speedup-vs-nodes curve with the linear reference."""
    if not points:
        raise ValueError("no scaling points to plot")
    max_nodes = max(p.n_nodes for p in points)
    grid = [[" "] * (width + 1) for _ in range(height + 1)]

    def place(x_nodes: float, y_speedup: float, char: str) -> None:
        col = round(x_nodes / max_nodes * width)
        row = height - round(y_speedup / max_nodes * height)
        if 0 <= row <= height and 0 <= col <= width:
            if grid[row][col] == " " or char == "o":
                grid[row][col] = char

    # Linear-scaling reference diagonal.
    for step in range(width + 1):
        nodes = step / width * max_nodes
        place(nodes, nodes, ".")
    # Measured points (plotted last so they win the cell).
    for point in points:
        place(point.n_nodes, point.speedup, "o")

    lines = [f"Fig. 2 — HPL relative speedup (o measured, . linear) "
             f"up to {max_nodes} nodes"]
    for row_index, row in enumerate(grid):
        y_label = (height - row_index) / height * max_nodes
        lines.append(f"{y_label:5.1f} |" + "".join(row))
    lines.append("      +" + "-" * (width + 1))
    labels = {round(p.n_nodes / max_nodes * width): str(p.n_nodes)
              for p in points}
    axis = [" "] * (width + 2)
    for col, label in labels.items():
        axis[col + 1] = label[0]
    lines.append("       " + "".join(axis) + "   (nodes)")
    for point in points:
        lines.append(f"       {point.n_nodes} nodes: {point.gflops:6.2f} "
                     f"GFLOP/s  speedup {point.speedup:5.2f}  "
                     f"({point.fraction_of_linear * 100:5.1f}% of linear)")
    return "\n".join(lines)
