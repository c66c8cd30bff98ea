"""Uniform-grid scalar fields on the strip Omega = [0,L] x [0,1].

Fields are sampled at nodes (i*hx, j*hy), i = 0..nx, j = 0..ny-1.  The
vertical direction is periodic by construction: only one row per period is
stored, so u(x,1) = u(x,0) can never drift.  The left edge x = 0 carries a
homogeneous Dirichlet condition for admissible fields; x = L is natural.

Differential operators are second-order finite differences (central in the
interior, one-sided at the two vertical edges, circulant in y).  Quadrature
is cell-centered: the integral is the sum over cells of the bilinear
cell-center value times hx*hy, which is exact for cellwise-bilinear
integrands and makes boolean cell masks partition the area of Omega exactly.

Each operator is a stencil table, built once per grid: its interior rows
are an integer combination of shifted input rows (coefficients +-1 or -2)
times one float scale, and its other rows (the y-wrap, the one-sided x
rows) are listed explicitly as float coefficients.  One evaluator,
_evaluate, computes a window of output rows [r0, r1) of an x-operator
from the window of input rows they read (a y-operator always acts on
whole rows); one loop, _blocks, runs it over windows of X u Y^T or
X^T v Y.  apply() and adjoint(), which name at least one operator, are
the one window of every row, into a caller's C-ordered array or a new
one; the smoothed energy's gradient pass calls the same window with a
private factor, folded into the last operator's coefficients, in place
of a whole-field multiply.  An interior output is its unit terms summed,
then scaled once, so it differs from the matrix product D @ u by at most
a few roundoffs of |D| @ |u| (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, ch. 4).

A sharp reduction never holds a whole derivative field: apply_strips()
runs the loop over strips of output rows, each block a view of one buffer
reused from strip to strip, and _square_row_sums(grid, f, x, y) sums the
squares of each strip's rows into one vector.  A strip holds about
_STRIP_BYTES (32 rows at ny = 1024, the whole field at ny <= 128); the
y-operator runs on its rows plus the x-operator's halo.  Every output
value and every row sum is the same computation as on the whole field,
so the bits do not depend on the strips (loop tiling: Wolf and Lam, PLDI
1991).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
import math
import os
from typing import Callable, NamedTuple, Optional
import warnings

import numpy as np

_FLOAT_MAX = float(np.finfo(float).max)


class InvalidGrid(ValueError):
    """Raised for nonpositive widths, cell counts that are not integers >= 8,
    and spacings h whose stencil scale 1/h^2 is not a positive finite float."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid over [0,L] x [0,1] with nx x ny cells."""

    L: float
    nx: int
    ny: int

    @property
    def hx(self) -> float:
        return self.L / self.nx

    @property
    def hy(self) -> float:
        return 1.0 / self.ny

    @property
    def x_nodes(self) -> np.ndarray:
        return np.arange(self.nx + 1) * self.hx

    @property
    def y_nodes(self) -> np.ndarray:
        return np.arange(self.ny) * self.hy

    def node_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays (X, Y) of shape (nx+1, ny)."""
        return np.meshgrid(self.x_nodes, self.y_nodes, indexing="ij")


def make_grid(L: float, nx: int, ny: int) -> Grid:
    if not np.isfinite(L) or L <= 0:
        raise InvalidGrid(f"domain width must be positive, got L={L}")
    if not all(np.isfinite(n) and n == int(n) for n in (nx, ny)):
        raise InvalidGrid(f"cell counts must be integers, got nx={nx}, ny={ny}")
    if nx < 8 or ny < 8:
        raise InvalidGrid(f"need nx, ny >= 8, got nx={nx}, ny={ny}")
    grid = Grid(float(L), int(nx), int(ny))
    # products, not h**2, which raises OverflowError where h * h is inf
    if not all(0.0 < h * h < math.inf and 1.0 / (h * h) < math.inf for h in (grid.hx, grid.hy)):
        raise InvalidGrid(f"L={L} on {nx}x{ny} cells: h^2 or 1/h^2 is not a finite float")
    return grid


def _finite(values: np.ndarray) -> bool:
    """Whether every value is finite, from min and max: no mask is written."""
    return bool(np.isfinite(values.min()) and np.isfinite(values.max()))


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Nodal values on a Grid, y-periodic by storage, immutable.

    A field keeps a private memo of what the bound checkers derive from it
    (the B-geometry, squared row sums), each computed once through
    _memoized.  It cannot go stale: the values are frozen and owned (a view
    or a writable array is copied first), so no caller can change them, and
    a field made by replace or _adopt starts with an empty memo.
    """

    grid: Grid
    values: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        expected = (self.grid.nx + 1, self.grid.ny)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        vals = self.values
        if vals.flags.writeable or vals.base is not None or vals.dtype != np.float64:
            # defensive copy, then freeze; a frozen float array that owns its
            # memory, as read_field and branched_seed make, is kept
            vals = np.array(vals, dtype=float)
        if not _finite(vals):
            raise ValueError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _adopt(u: ScalarField, values: np.ndarray) -> ScalarField:
    """A field on u's grid for a new array: frozen, the field keeps it uncopied."""
    values.setflags(write=False)
    return ScalarField(u.grid, values)


def _memoized(u: ScalarField, key, compute: Callable[[ScalarField], object]):
    """compute(u), computed once per field and kept under key in its memo.

    What compute returns is shared by every later caller, so its arrays
    must be read-only.  Two threads may both compute a missing entry; the
    first stored is the one kept.
    """
    try:
        return u._memo[key]
    except KeyError:
        return u._memo.setdefault(key, compute(u))


def zero_field(grid: Grid) -> ScalarField:
    return ScalarField(grid, np.zeros((grid.nx + 1, grid.ny)))


def field_from_function(grid: Grid,
                        fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> ScalarField:
    """Sample fn(x, y) at the nodes."""
    X, Y = grid.node_mesh()
    return ScalarField(grid, np.asarray(fn(X, Y), dtype=float))


# ---------------------------------------------------------------------------
# finite-difference operators as stencil tables; nothing outside this module
# reaches them except through apply(), adjoint() and apply_strips()

class Workspace:
    """A descent's own float arrays (no operator's), reused across iterations.

    get() hands out the C-ordered float64 array kept under a key and makes
    a new one only when the key is new or its shape changed.  A workspace
    serves one descent: each minimize makes its own, so descents on
    several threads never share one, and nothing caches one per grid.
    """

    def __init__(self):
        self._arrays: dict = {}

    def get(self, key, shape: tuple) -> np.ndarray:
        a = self._arrays.get(key)
        if a is None or a.shape != shape:
            a = self._arrays[key] = np.empty(shape)
        return a


class _Stencil(NamedTuple):
    """One operator D with n_out rows as slice arithmetic along its axis.

    Output rows lo..hi-1 share one interior row: `scale` times the sum of
    the input rows r + offset over `units`, (offset, np.add or np.subtract)
    pairs whose first is np.add, a coefficient of -2 being two units.  Every
    other output row is listed in `edges` as (row, ((column, coefficient),
    ...)), columns ascending.
    """

    n_out: int
    lo: int
    hi: int
    scale: float
    units: tuple
    edges: tuple


def _stencil(rows: list) -> _Stencil:
    """The table of explicit rows [((column, coefficient), ...), ...]; the
    longest run of rows with equal terms becomes the interior, whose scale is
    its least coefficient magnitude, signed as its first coefficient."""
    shapes = [tuple((col - r, a) for col, a in row) for r, row in enumerate(rows)]
    lo = hi = start = 0
    for r in range(1, len(rows) + 1):
        if r == len(rows) or shapes[r] != shapes[start]:
            if r - start > hi - lo:
                lo, hi = start, r
            start = r
    terms = shapes[lo]
    scale = math.copysign(min(abs(a) for _, a in terms), terms[0][1])
    units = []
    for o, a in terms:
        k = a / scale
        if k != int(k) or k * scale != a:
            raise ValueError(f"interior coefficient {a} is no integer multiple of {scale}")
        units += [(o, np.add if k > 0 else np.subtract)] * int(abs(k))
    edges = tuple((r, row) for r, row in enumerate(rows) if not lo <= r < hi)
    return _Stencil(len(rows), lo, hi, scale, tuple(units), edges)


def _transposed(rows: list, n_in: int) -> list:
    """Rows of D^T; each lists the rows of D in ascending order."""
    cols = [[] for _ in range(n_in)]
    for r, row in enumerate(rows):
        for col, a in row:
            cols[col].append((r, a))
    return [tuple(c) for c in cols]


@lru_cache(maxsize=128)
def _stencils(grid: Grid) -> dict:
    """Operator name -> (stencil of D, stencil of D^T).

    Each interior coefficient is exactly +-1 or -2 times its scale (+-0.5 / h,
    1 / h, 1 / h**2 or 0.5): scaling by a power of two commutes with rounding.
    """
    nx, ny = grid.nx, grid.ny
    hx, hy = grid.hx, grid.hy

    def circulant(terms):
        return [tuple(sorted(((j + o) % ny, a) for o, a in terms)) for j in range(ny)]

    def banded(n_out, terms, first=(), last=()):
        rows = [tuple((i + o, a) for o, a in terms) for i in range(n_out)]
        if first:
            rows[0] = tuple(enumerate(first))
        if last:
            rows[-1] = tuple(enumerate(last, start=n_out - len(last)))
        return rows

    rows = {
        # circulant central first and second derivatives in y
        "Dy": (circulant(((-1, -0.5 / hy), (1, 0.5 / hy))), ny),
        "Dyy": (circulant(((-1, 1.0 / hy**2), (0, -2.0 / hy**2), (1, 1.0 / hy**2))), ny),
        # central first derivative in x, one-sided second-order rows at i=0, nx
        "Dx": (banded(nx + 1, ((-1, -0.5 / hx), (1, 0.5 / hx)),
                      (-1.5 / hx, 2.0 / hx, -0.5 / hx),
                      (0.5 / hx, -2.0 / hx, 1.5 / hx)), nx + 1),
        # second derivative in x, one-sided second-order rows at the edges
        "Dxx": (banded(nx + 1, ((-1, 1.0 / hx**2), (0, -2.0 / hx**2), (1, 1.0 / hx**2)),
                       (2.0 / hx**2, -5.0 / hx**2, 4.0 / hx**2, -1.0 / hx**2),
                       (-1.0 / hx**2, 4.0 / hx**2, -5.0 / hx**2, 2.0 / hx**2)), nx + 1),
        # node -> cell averaging (bilinear value at cell centers)
        "Axc": (banded(nx, ((0, 0.5), (1, 0.5))), nx + 1),
        # forward difference in y on the cell circle: (u[:, j+1] - u[:, j]) / hy
        "Fy": (circulant(((0, -1.0 / hy), (1, 1.0 / hy))), ny),
        # cell averaging in y: (w[:, j] + w[:, j+1]) / 2 on the circle
        "Ayc": (circulant(((0, 0.5), (1, 0.5))), ny),
    }
    return {name: (_stencil(r), _stencil(_transposed(r, n))) for name, (r, n) in rows.items()}


def _times(a: float, factor: float) -> float:
    """a * factor, saturated at the largest float: a zero input then still
    gives 0 where the product overflows or factor is infinite (0 * inf
    would be nan)."""
    return min(max(a * factor, -_FLOAT_MAX), _FLOAT_MAX)


def _evaluate(st: _Stencil, src: np.ndarray, dst: np.ndarray, axis: int,
              r0: int, s0: int, factor: float = 1.0) -> None:
    """dst = factor * D along `axis` of src; src and dst are C-ordered.

    Along the slow axis dst holds the output rows r0 .. r0 + len(dst) - 1,
    and src the input rows from s0 on, at least those the output rows read
    (_input_rows); each output row is a slice of whole input rows.  Along
    the contiguous axis (y-operators only, which are square; r0 and s0 are
    ignored) every row is computed, the interior as one flat run whose row
    seams land on the edge columns, rewritten after.  The interior adds or
    subtracts its unit input slices straight into dst, then multiplies by
    the scale once.  factor is folded into the scale and into each edge
    coefficient (_times), so it costs no pass; at factor 1 the bits are D's.
    """
    sf, df = src.reshape(-1), dst.reshape(-1)
    if axis == 0:
        step, r1 = src.shape[1], r0 + dst.shape[0]
        shift = (r0 - s0) * step
        b, e = (max(st.lo, r0) - r0) * step, (min(st.hi, r1) - r0) * step
    else:
        step, r1, shift, r0, s0 = 1, st.n_out, 0, 0, 0
        b, e = st.lo, df.size - (st.n_out - st.hi)
    if b < e:
        out = df[b:e]
        (o0, _), (o1, f), *rest = st.units
        i0, i1 = b + shift + o0 * step, b + shift + o1 * step
        f(sf[i0:i0 + e - b], sf[i1:i1 + e - b], out=out)
        for o, f in rest:
            i = b + shift + o * step
            f(out, sf[i:i + e - b], out=out)
        np.multiply(out, _times(st.scale, factor), out=out)
    if st.edges:
        # edge rows are whole input rows, or columns for a y-operator, each
        # with its own coefficients, so they are done one line at a time
        sv, dv = (src, dst) if axis == 0 else (src.T, dst.T)
        scratch = np.empty(sv.shape[1])
        for r, ((col, a), *more) in st.edges:
            if not r0 <= r < r1:
                continue
            acc = dv[r - r0]
            np.multiply(sv[col - s0], _times(a, factor), out=acc)
            for col, a in more:
                acc += np.multiply(sv[col - s0], _times(a, factor), out=scratch)


def _input_rows(st: _Stencil, r0: int, r1: int) -> tuple[int, int]:
    """The input rows [a, b) that output rows [r0, r1) of st read."""
    rows = [col for r, terms in st.edges if r0 <= r < r1 for col, _ in terms]
    lo, hi = max(st.lo, r0), min(st.hi, r1)
    if lo < hi:
        offsets = [o for o, _ in st.units]
        rows += [lo + min(offsets), hi - 1 + max(offsets)]
    return min(rows), max(rows) + 1


def _blocks(grid: Grid, values: np.ndarray, x: Optional[str], y: Optional[str],
            transposed: bool, windows: tuple, out: Optional[np.ndarray] = None,
            factor: float = 1.0):
    """Yield (r0, block) per window (r0, r1, a, b): block is rows [r0, r1) of
    X values Y^T, or of X^T values Y when transposed, from input rows [a, b),
    times factor; at least one of x and y is named.

    values is copied to C order first if it is not.  X values Y^T runs the
    y-operator on rows [a, b), then the x-operator; X^T values Y the x-
    operator, then the y-operator on its rows.  factor goes into the last
    operator's coefficients (_evaluate).  A block is a view of `out`
    (C-ordered) when one is given, else one buffer (a view where the window
    is shorter) that the next window overwrites.  With two operators the
    first writes a whole-window intermediate, allocated per call.
    """
    named = ((x, 0), (y, 1)) if transposed else ((y, 1), (x, 0))
    ops = [(_stencils(grid)[n][transposed], axis) for n, axis in named if n is not None]
    values = np.ascontiguousarray(values)
    ny = values.shape[1]
    # the intermediate first: freed first, it leaves a hole below the buffer,
    # not a heap top that glibc trims and the next call faults back in
    if len(ops) == 2:
        mid = np.empty((max(max(r1 - r0, b - a) for r0, r1, a, b in windows), ny))
    if out is None:
        buf = np.empty((max(r1 - r0 for r0, r1, _, _ in windows), ny))
    for r0, r1, a, b in windows:
        block = buf if out is None else out[r0:r1]
        block = block[:r1 - r0] if len(block) > r1 - r0 else block
        src = values[a:b]
        for k, (st, axis) in enumerate(ops):
            last = k == len(ops) - 1
            dst = block if last else mid[:len(src) if axis else r1 - r0]
            _evaluate(st, src, dst, axis, r0, a, factor if last else 1.0)
            src = dst
        yield r0, block


def _whole(grid: Grid, values: np.ndarray, x: Optional[str], y: Optional[str],
           transposed: bool, out: Optional[np.ndarray],
           factor: float = 1.0) -> np.ndarray:
    """apply() or adjoint(), times factor: _blocks over the one window of
    every row.  The gradient pass passes its coefficients as factor, which
    saves it a whole-field multiply per term."""
    if x is None and y is None:
        raise ValueError("apply and adjoint need an x- or a y-operator")
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous array")
    # not strips: same bits, but 5-15 % more CPU for a descent at 256^2
    n = len(values) if x is None else _stencils(grid)[x][transposed].n_out
    _, block = next(_blocks(grid, values, x, y, transposed, ((0, n, 0, len(values)),),
                            out, factor))
    return block if out is None else out


def apply(grid: Grid, values: np.ndarray, x: Optional[str] = None,
          y: Optional[str] = None, out: Optional[np.ndarray] = None) -> np.ndarray:
    """X @ values @ Y^T for the named x- and y-operators (None: identity), y first.

    Names: Dx, Dxx, Axc (nodes -> cells) in x; Dy, Dyy, Fy, Ayc (cell circle) in y.
    At least one is named, and `out`, when given, is C-contiguous: anything
    else raises ValueError.  The result is a new C-ordered array or `out`,
    with the same bits.  An input that is not C-ordered is copied to C order
    first.  With two operators, the first writes a new array of its own.
    """
    return _whole(grid, values, x, y, False, out)


def adjoint(grid: Grid, values: np.ndarray, x: Optional[str] = None,
            y: Optional[str] = None, out: Optional[np.ndarray] = None) -> np.ndarray:
    """X^T @ values @ Y, the adjoint of apply(); the x-operator acts first.

    Evaluated, laid out, written and refused as apply() is.
    """
    return _whole(grid, values, x, y, True, out)


# A strip array holds about this many bytes: a few fit in a core's cache
# next to the strip's input rows, and a whole-field array is never made
_STRIP_BYTES = 1 << 18


@lru_cache(maxsize=128)
def _strip_windows(grid: Grid, x: Optional[str]) -> tuple:
    """(r0, r1, a, b) per strip: output rows [r0, r1) of the x-operator (the
    identity for None) and the input rows [a, b) they read."""
    st = None if x is None else _stencils(grid)[x][0]
    n_out = grid.nx + 1 if st is None else st.n_out
    height = max(1, _STRIP_BYTES // (8 * grid.ny))
    windows = []
    for r0 in range(0, n_out, height):
        r1 = min(r0 + height, n_out)
        windows.append((r0, r1) + ((r0, r1) if st is None else _input_rows(st, r0, r1)))
    return tuple(windows)


def apply_strips(grid: Grid, values: np.ndarray, x: Optional[str] = None,
                 y: Optional[str] = None):
    """Iterate (r0, block) in row order: block is rows r0 .. r0 + len(block) - 1
    of apply(grid, values, x, y), with the same bits.

    With an operator, _blocks over _strip_windows: each block is a view of a
    buffer that the next step overwrites, and the caller may overwrite it
    too.  With none, values comes back whole as one block.
    """
    if x is None and y is None:
        return iter([(0, values)])
    return _blocks(grid, values, x, y, False, _strip_windows(grid, x))


def d_y(u: ScalarField) -> ScalarField:
    """Central difference in y with periodic wraparound."""
    return _adopt(u, apply(u.grid, u.values, y="Dy"))


def d_x(u: ScalarField) -> ScalarField:
    """Central difference in x; one-sided second-order stencils at i=0, nx."""
    return _adopt(u, apply(u.grid, u.values, "Dx"))


def d_yy(u: ScalarField) -> ScalarField:
    return _adopt(u, apply(u.grid, u.values, y="Dyy"))


def d_xx(u: ScalarField) -> ScalarField:
    return _adopt(u, apply(u.grid, u.values, "Dxx"))


def d_xy(u: ScalarField) -> ScalarField:
    """Mixed second derivative, computed as d_x(d_y(u))."""
    return _adopt(u, apply(u.grid, u.values, "Dx", "Dy"))


def _x_weights(grid: Grid) -> np.ndarray:
    w = np.ones(grid.nx + 1)
    w[0] = w[-1] = 0.5
    return w


def integrate(f: ScalarField | np.ndarray, grid: Grid | None = None) -> float:
    """Cell-centered quadrature of a nodal field over Omega.

    Equals the sum over cells of the bilinear cell-center value times hx*hy
    (trapezoid in x, periodic rectangle rule in y); exact for cellwise-
    bilinear integrands.
    """
    if isinstance(f, ScalarField):
        grid, values = f.grid, f.values
    else:
        if grid is None:
            raise ValueError("grid required when integrating a bare array")
        values = np.asarray(f)
    return _integrate_rows(grid, values.sum(axis=1))


def _square_row_sums(grid: Grid, values: np.ndarray, x: Optional[str] = None,
                     y: Optional[str] = None) -> np.ndarray:
    """Row sums of (X values Y^T)^2, a strip at a time (apply_strips).

    Each row's sum comes from einsum, which writes no product array and
    never calls BLAS, so the bits depend neither on the number of BLAS
    threads nor on the strips.
    """
    return np.concatenate([np.einsum("ij,ij->i", block, block)
                           for _, block in apply_strips(grid, values, x, y)])


def _field_row_sums(u: ScalarField, x: Optional[str] = None,
                    y: Optional[str] = None) -> np.ndarray:
    """_square_row_sums of u's values, read-only, computed once per field."""
    def compute(v):
        rows = _square_row_sums(v.grid, v.values, x, y)
        rows.setflags(write=False)
        return rows
    return _memoized(u, ("row_sums", x, y), compute)


def _integrate_rows(grid: Grid, rows: np.ndarray) -> float:
    return float(grid.hx * grid.hy * (_x_weights(grid) @ rows))


def integrate_square(f: np.ndarray, grid: Grid) -> float:
    """integrate(f^2, grid), with no square array written."""
    return _integrate_rows(grid, _square_row_sums(grid, f))


def _field_integral_square(u: ScalarField, x: Optional[str] = None,
                           y: Optional[str] = None) -> float:
    """integrate((X u Y^T)^2) for the named operators (None: identity), with
    the bits of integrate_square(apply(u.grid, u.values, x, y), u.grid),
    from the field's memoized row sums."""
    return _integrate_rows(u.grid, _field_row_sums(u, x, y))


def l2_norm(u: ScalarField) -> float:
    """sqrt of integrate(u^2), from the field's memoized row sums."""
    return math.sqrt(_field_integral_square(u))


# ---------------------------------------------------------------------------
# WSF1 text dump format

# A table entry, a str of up to 24 characters plus its slot, costs about
# 80 bytes: ten float64 values.
_TABLE_COST = 10
_BLOCK_ROWS = 16   # rows per write or read: bounds the index and token temporaries


def _groups(keys: np.ndarray) -> Optional[tuple]:
    """Equal entries of a 1-D array grouped: (the position of one entry per
    distinct key, the index of each entry's key among them), or None when
    more than one key in _TABLE_COST is distinct."""
    order = np.argsort(keys)
    ordered = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if _TABLE_COST * np.count_nonzero(first) > keys.size:
        return None
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    return order[first], inverse


def write_field(path, u: ScalarField) -> None:
    """Write the WSF1 dump: header, then nx+1 lines of ny values (row-major in i).

    Values are printed with 17 significant digits so readers round-trip
    bit-identically.  The field goes out _BLOCK_ROWS lines at a time, the
    blocks read_field reads.  A block in which at most one value in
    _TABLE_COST is distinct by bit pattern (so -0.0 and +0.0 stay apart),
    as in a construction built from 1-D profiles, formats each distinct
    value once and joins its rows from that string table: the 17-digit
    conversion is the cost of a dump.  Any other block, where the table
    would spare few conversions, goes through np.savetxt.  Both paths write
    the same bytes, and no transient outgrows one block.
    """
    g = u.grid
    with open(path, "w", newline="\n") as fh:
        fh.write(f"WSF1 nx={g.nx} ny={g.ny} L={g.L:.17g}\n")
        for i in range(0, g.nx + 1, _BLOCK_ROWS):
            block = u.values[i:i + _BLOCK_ROWS]
            flat = block.reshape(-1)
            groups = _groups(flat.view(np.uint64))
            if groups is None:
                np.savetxt(fh, block, fmt="%.17g")
                continue
            reps, inverse = groups
            table = np.array(["%.17g" % v for v in flat[reps].tolist()], dtype=object)
            rows = table[inverse].reshape(block.shape).tolist()
            fh.write("".join([" ".join(row) + "\n" for row in rows]))


def _table_values(lines: list) -> Optional[np.ndarray]:
    """np.loadtxt(lines, dtype=float, ndmin=2), converting each distinct token
    once; None where loadtxt should read the lines itself.

    loadtxt first splits the lines into byte tokens (S32), so its own row,
    column, comment and blank-line rules apply.  The tokens are grouped by
    a hash of their four 8-byte words, each checked word for word against
    its representative, and the distinct ones are converted by loadtxt again,
    from one line: the same parser gives the same bits and rejects the same
    tokens.  None comes back for a token that fills all 32 bytes (it may have
    been cut), a NUL (S32 drops trailing ones), a hash collision, more than
    one token in _TABLE_COST distinct (the writer's rule, from the same
    _groups), or lines or tokens that loadtxt rejects, so that its own error
    names their row and column.
    """
    if any("\0" in line for line in lines):
        return None
    try:
        tokens = np.loadtxt(lines, dtype="S32", ndmin=2)
    except ValueError:
        return None
    if tokens.size == 0:   # blank and comment lines only
        return np.empty(tokens.shape)
    if tokens.view(np.uint8)[..., 31::32].any():
        return None
    words = tokens.view(np.uint64).reshape(-1, 4)
    # odd multipliers: tokens that differ in one word never share a hash
    keys = words[:, 0] * 0x9E3779B97F4A7C15
    for k, m in ((1, 0xC2B2AE3D27D4EB4F), (2, 0x165667B19E3779F9), (3, 0x27D4EB2F165667C5)):
        keys += words[:, k] * m
    groups = _groups(keys)
    if groups is None:
        return None
    reps, inverse = groups
    if not np.array_equal(words.take(reps[inverse], axis=0), words):   # a collision
        return None
    try:
        table = np.loadtxt([b" ".join(tokens.reshape(-1)[reps].tolist())],
                           dtype=float, ndmin=1, encoding="latin1")
    except ValueError:
        return None
    return table[inverse].reshape(tokens.shape)


def _payload(fh, path, shape: tuple) -> np.ndarray:
    """The rest of fh as np.loadtxt(fh, dtype=float, ndmin=2) reads it, which
    must fill shape: a new frozen array, or a ValueError.

    Each _BLOCK_ROWS lines go through _table_values, else loadtxt.  After a
    refusal the table is next tried 1, 5, 21, ... blocks on, so a field of
    distinct values costs few tries.  The array is allocated before any
    block's temporaries, which then cannot split the heap's room for it, and
    only if the file can hold its values at two characters each.
    """
    fits = 2 * shape[0] * shape[1] - 1 <= os.fstat(fh.fileno()).st_size
    values = np.empty(shape) if fits else None
    rows, line = 0, 2
    skip = gap = 0
    with warnings.catch_warnings():
        # blank and comment lines give empty blocks; a header-only file is
        # reported below, as a ValueError alone
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        for lines in iter(lambda: list(islice(fh, _BLOCK_ROWS)), []):
            block = None
            if skip:
                skip -= 1
            else:
                block = _table_values(lines)
                gap = skip = 0 if block is not None else 4 * gap + 1
            if block is None:
                try:
                    block = np.loadtxt(lines, dtype=float, ndmin=2)
                except ValueError as exc:
                    raise ValueError(f"WSF1 payload of {path}, lines from {line}: "
                                     f"{exc}") from None
            line += len(lines)
            if block.size == 0:
                continue
            if values is None:
                raise ValueError(f"WSF1 file {path} is too short for {shape} values")
            if block.shape[1] != shape[1] or rows + len(block) > shape[0]:
                raise ValueError(f"WSF1 payload of {path} does not fit {shape}: a row of "
                                 f"{block.shape[1]} values, or more than {shape[0]} rows")
            values[rows:rows + len(block)] = block
            rows += len(block)
    if rows == 0:
        raise ValueError(f"WSF1 file {path} has a header but no values")
    if rows != shape[0]:
        raise ValueError(f"WSF1 payload shape {(rows, shape[1])} != {shape}")
    values.setflags(write=False)
    return values


def read_field(path) -> ScalarField:
    """Read a WSF1 dump written by write_field.

    The header is checked, and the grid built, before any value is read.
    The payload is accepted where np.loadtxt(fh, dtype=float, ndmin=2)
    accepts it, with the same bits: it is read _BLOCK_ROWS lines at a time
    into one array of the header's shape.  A block in which at most one
    token in _TABLE_COST is distinct converts each distinct token once
    (_table_values), the rule write_field applies to the same blocks; any
    other block goes through loadtxt.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if not header or header[0] != "WSF1":
            raise ValueError(f"not a WSF1 file: {path}")
        bad = [part for part in header[1:] if "=" not in part]
        if bad:
            raise ValueError(f"WSF1 header of {path} has a token without '=': {bad[0]!r}")
        meta = dict(part.split("=", 1) for part in header[1:])
        missing = [key for key in ("nx", "ny", "L") if key not in meta]
        if missing:
            raise ValueError(f"WSF1 header of {path} lacks {', '.join(missing)}")
        grid = make_grid(float(meta["L"]), int(meta["nx"]), int(meta["ny"]))
        values = _payload(fh, path, (grid.nx + 1, grid.ny))
    return ScalarField(grid, values)
