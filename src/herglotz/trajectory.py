"""Uniform-grid trajectories: x with derivatives through order n on
[a - tau, b] (history region served by the exact expressions), z on [a, b].

The delay is always an exact number of grid steps (tau = p*h), so delayed
lookups are index shifts and never interpolate across the delay coupling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import expr as ex
from . import problem as pb
from .errors import GridTooSmall, ValidationError

_ALIGN_TOL = 1e-8


@dataclass(frozen=True)
class Grid:
    a: float
    b: float
    M: int  # number of steps; M+1 nodes
    p: int  # delay offset in steps: tau = p*h

    @property
    def h(self):
        return (self.b - self.a) / self.M

    def nodes(self):
        return self.a + self.h * np.arange(self.M + 1)

    @property
    def junction(self):
        """Node index of t = b - tau."""
        return self.M - self.p


def align_grid(a, b, tau, n=1, M=None, h=None) -> Grid:
    """Choose a grid with tau an exact multiple of the step.

    Give either a node-count target ``M`` (used as-is, validated) or a step
    target ``h`` (M is nudged to the nearest aligned value).
    """
    if not b > a:
        raise ValidationError(f"b must exceed a, got a={a!r}, b={b!r}")
    if not 0.0 <= tau < b - a:
        raise ValidationError(f"delay must satisfy 0 <= tau < b - a, got tau={tau!r}")
    if M is None:
        if h is None:
            raise ValidationError("align_grid needs M or h")
        if not (np.isfinite(h) and h > 0 and np.isfinite((b - a) / h)):
            raise ValidationError(f"h must be a positive finite step, got {h!r}")
        M0 = max(10 * n, int(round((b - a) / h)))
        for d in range(0, max(64, M0 // 8)):
            for cand in (M0 + d, M0 - d) if d else (M0,):
                if cand < max(10 * n, 7):
                    continue
                q = cand * tau / (b - a)
                if abs(q - round(q)) <= _ALIGN_TOL * max(1, cand):
                    return Grid(a=float(a), b=float(b), M=cand, p=int(round(q)))
        raise ValidationError(
            f"no grid near h={h!r} aligns the delay tau={tau!r} with the step")
    M = int(M)
    if M < 10 * n:
        raise ValidationError(f"M={M} too small; need at least 10*n = {10 * n}")
    q = M * tau / (b - a)
    if abs(q - round(q)) > _ALIGN_TOL * max(1, M):
        raise ValidationError(
            f"tau={tau!r} is not an integer multiple of h=(b-a)/{M}")
    return Grid(a=float(a), b=float(b), M=M, p=int(round(q)))


# ---------------------------------------------------------------------------
# repeated O(h^4) differentiation

def differentiate_values(values, h, l=1):
    """Apply the 5-point O(h^4) first-derivative stencil ``l`` times along the
    last axis; the two nodes at each end use one-sided 5-point stencils."""
    arr = np.asarray(values, dtype=float)
    if arr.shape[-1] < 7:
        raise GridTooSmall(f"need at least 7 nodes, got {arr.shape[-1]}")
    for _ in range(l):
        arr = _d1(arr, h)
    return arr


def _d1(f, h):
    out = np.empty_like(f)
    out[..., 2:-2] = (f[..., :-4] - 8 * f[..., 1:-3]
                      + 8 * f[..., 3:-1] - f[..., 4:]) / (12 * h)
    out[..., 0] = (-25 * f[..., 0] + 48 * f[..., 1] - 36 * f[..., 2]
                   + 16 * f[..., 3] - 3 * f[..., 4]) / (12 * h)
    out[..., 1] = (-3 * f[..., 0] - 10 * f[..., 1] + 18 * f[..., 2]
                   - 6 * f[..., 3] + f[..., 4]) / (12 * h)
    out[..., -2] = (-f[..., -5] + 6 * f[..., -4] - 18 * f[..., -3]
                    + 10 * f[..., -2] + 3 * f[..., -1]) / (12 * h)
    out[..., -1] = (3 * f[..., -5] - 16 * f[..., -4] + 36 * f[..., -3]
                    - 48 * f[..., -2] + 25 * f[..., -1]) / (12 * h)
    return out


def midpoint_values(series, h):
    """Values at interval midpoints t_i + h/2 for a family of derivative
    series ``series`` of shape (..., n+1, M+1).

    Orders below the top use cubic Hermite (value series k plus derivative
    series k+1); the top order uses a local cubic through 4 nodes.
    """
    s = np.asarray(series, dtype=float)
    nmax = s.shape[-2] - 1
    M = s.shape[-1] - 1
    out = np.empty(s.shape[:-1] + (M,))
    for k in range(nmax):
        f, d = s[..., k, :], s[..., k + 1, :]
        out[..., k, :] = (0.5 * (f[..., :-1] + f[..., 1:])
                          + (h / 8.0) * (d[..., :-1] - d[..., 1:]))
    y = s[..., nmax, :]
    top = np.empty(s.shape[:-2] + (M,))
    if M >= 3:
        top[..., 1:M - 1] = (-y[..., 0:M - 2] + 9 * y[..., 1:M - 1]
                             + 9 * y[..., 2:M] - y[..., 3:M + 1]) / 16.0
        top[..., 0] = (5 * y[..., 0] + 15 * y[..., 1]
                       - 5 * y[..., 2] + y[..., 3]) / 16.0
        top[..., M - 1] = (y[..., M - 3] - 5 * y[..., M - 2]
                           + 15 * y[..., M - 1] + 5 * y[..., M]) / 16.0
    else:
        top[..., :] = 0.5 * (y[..., :-1] + y[..., 1:])
    out[..., nmax, :] = top
    return out


# ---------------------------------------------------------------------------
# trajectories

@dataclass(frozen=True)
class StateTrajectory:
    grid: Grid
    x: np.ndarray  # (m, n+1, M+1)
    z: np.ndarray | None = None  # (M+1,)

    @property
    def m(self):
        return self.x.shape[0]

    @property
    def n(self):
        return self.x.shape[1] - 1

    def with_z(self, z):
        return replace(self, z=np.asarray(z, dtype=float))


def build_series(pos, h, n):
    """Stack position samples with their n stencil-derived derivative series.
    pos: (..., M+1) -> (..., n+1, M+1)."""
    pos = np.asarray(pos, dtype=float)
    x = np.empty(pos.shape[:-1] + (n + 1, pos.shape[-1]))
    x[..., 0, :] = pos
    for k in range(1, n + 1):
        x[..., k, :] = differentiate_values(x[..., k - 1, :], h, 1)
    return x


def from_expressions(p: pb.ProblemSpec, grid: Grid, sources) -> StateTrajectory:
    """Build a trajectory from one expression of t per component; all
    derivative series are exact symbolic derivatives sampled on the nodes."""
    if len(sources) != p.m:
        raise ValidationError(f"need {p.m} component expressions, got {len(sources)}")
    t = grid.nodes()
    x = np.empty((p.m, p.n + 1, grid.M + 1))
    for j, src in enumerate(sources):
        e = ex.parse_expression(src) if isinstance(src, str) else src
        extra = ex.free_variables(e) - {"t"}
        if extra:
            raise ValidationError(f"candidate x{j + 1} may only depend on t, "
                                  f"found {sorted(extra)}")
        for k in range(p.n + 1):
            with np.errstate(all="ignore"):
                x[j, k] = np.broadcast_to(np.asarray(ex.compile_expr(e, ["t"])(t),
                                                     dtype=float), t.shape)
            e = ex.differentiate(e, "t") if k < p.n else e
    return StateTrajectory(grid=grid, x=x)


# ---------------------------------------------------------------------------
# CSV interchange

def trajectory_columns(n, m):
    return ["t"] + [f"x{j}_d{k}" for j in range(1, m + 1) for k in range(n + 1)] + ["z"]


def write_trajectory_csv(traj: StateTrajectory, path):
    """One row per node: t, x{j}_d{k} for all j and k, z (17 significant
    digits, '.' decimal separator)."""
    if traj.z is None:
        raise ValidationError("trajectory has no z series; simulate it first")
    cols = trajectory_columns(traj.n, traj.m)
    t = traj.grid.nodes()
    rows = [t] + [traj.x[j, k] for j in range(traj.m) for k in range(traj.n + 1)]
    rows.append(traj.z)
    _write_csv(path, cols, rows)


def _write_csv(path, header, columns, footer=""):
    """A header line, one row of ``columns`` per node (17 significant
    digits) and an optional footer line, to a path or an open text file."""
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), footer=footer, comments="")


def read_trajectory_csv(p: pb.ProblemSpec, path) -> StateTrajectory:
    """Rebuild a trajectory from the CSV produced by write_trajectory_csv; its
    t column must be a uniform grid on the problem's [a, b]."""
    if hasattr(path, "read"):
        text = path.read()
    else:
        with open(path) as fh:
            text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    expected = trajectory_columns(p.n, p.m)
    header = lines[0].split(",") if lines else []
    if header != expected:
        raise ValidationError(
            f"trajectory CSV columns {header} do not match expected {expected}")
    if len(lines) < 2:
        raise ValidationError("trajectory CSV has a header but no data rows")
    try:  # a non-numeric cell, or rows of unequal length
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as err:
        raise ValidationError(f"trajectory CSV has a malformed data row: {err}") from None
    if data.shape[1] != len(expected):
        raise ValidationError(f"trajectory CSV data rows have {data.shape[1]} "
                              f"cells, need {len(expected)}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValidationError(f"trajectory CSV has a non-finite {expected[col]} "
                              f"value in data row {row + 1}")
    t = data[:, 0]
    M = len(t) - 1
    if M < 7:
        raise GridTooSmall("trajectory CSV has fewer than 8 nodes")
    scale = _ALIGN_TOL * max(1.0, abs(p.a), abs(p.b))
    if abs(t[0] - p.a) > scale or abs(t[-1] - p.b) > scale:
        raise ValidationError(
            f"trajectory CSV t column spans [{float(t[0])!r}, {float(t[-1])!r}], "
            f"not the problem's interval [a, b] = [{p.a!r}, {p.b!r}]")
    grid = align_grid(t[0], t[-1], p.tau, n=p.n, M=M)
    off = np.max(np.abs(t - grid.nodes()))
    if off > _ALIGN_TOL * max(1.0, abs(grid.a), abs(grid.b)):
        raise ValidationError(
            f"trajectory CSV t column is not the uniform grid from {float(t[0])!r} "
            f"to {float(t[-1])!r} with {M} steps (off by up to {off:.3g})")
    x = np.empty((p.m, p.n + 1, M + 1))
    col = 1
    for j in range(p.m):
        for k in range(p.n + 1):
            x[j, k] = data[:, col]
            col += 1
    return StateTrajectory(grid=grid, x=x, z=data[:, col].copy())
