"""Lattice-periodized Cauchy and Green kernels with certified truncation.

Every evaluation sums terms over sup-norm shells of the integer coefficient
lattice, in increasing shell order and lexicographic order within a shell,
pairwise within a shell and compensated across groups of shells
(`shell_sum`).  A group is one shell, except at rank 1, where eight 2-row
shells share one: a pairwise tree adds their sums before one compensated
add (`_groups`, `kahan_shell_sum`).  The groups depend only on the rank and
the radii.  Every add is elementwise across points, so evaluations stay
bit-reproducible: the bits of a point's value do not depend on the batch it
shares, on how the batch is chunked, or on how callers parallelise around
it.  Squared norms are summed over the coordinates left to right
(`sq_norm`), one fixed order whatever the memory layout.

Memory layout: a batch is coordinate-major (Fortran order) from the point
pair on: each coordinate of a (B, n) array is one contiguous column.
`_pair_batch` and every reflection subset write their differences so
(`_difference`), and the frame's t, P, rho, the near term, the map-back
(`_dot`, a column at a time) and the superposition keep it.  `shell_sum`
stores each chunk of points and each shell's lattice vectors so, numpy
carries the layout through the image differences, the terms and the
compensated sum while the arrays keep their (m, B, n) shapes as views, and
the result has the layout of `kahan_shell_sum`'s sums, a column per value.
Elementwise loops then run over the batch or the shell rows instead of over
the n coordinates.  Only numpy's reductions over a row of eight or more
coordinates round by layout; the tails' separations take them from a
row-major copy (`_row_sums`), so every bit is independent of the layout.

Row blocks: the terms are evaluated a block of rows at a time, and a block
holds at most `_TILE` = 2^15 image coordinates or term values of the chunk
(256 KiB), so memory follows the block, not the shell.  A shell with more
rows than the largest power of two that fits (`_block_rows`) is split into
blocks of that many rows.  The bits do not move: a block of 2^j rows that
starts at a multiple of 2^j is one subtree of the shell's pairwise tree
(`_pairwise_sum`), the last block a partial one, so the pairwise sum of the
block sums is the shell sum.  The blocks go to `kahan_shell_sum` as one
group, whose counter builds that sum as it builds the tree of a rank-1
group.  Smaller shells r >= 1 go the other way: a run of consecutive whole
shells shares one block while their rows fit the tile, and each shell's
rows are summed as their own slice of the block's terms, so every shell
keeps its pairwise tree and its place in its group.  Every term is
elementwise in its row, and so is every block product: the lattice vectors
W = m @ basis and the torus's W . v come from `lattice._dot`, one fixed order
of rounded products and adds per row, not from BLAS, whose kernels round a
row by the size of the block it sits in.  So a block may start on any row and
hold any number of rows, one included, and keep the bits of one block per
shell.  Which shells share a block and which are split depends only on the
rank, the radii, the block rows, the chunk's values per row and `_TILE`:
one cached plan per chunk size (`_plan`) holds it, with the items' groups
and checkpoint prefixes, so a block does only its per-point work.

A lattice keeps the W of its first shells (`Lattice._vectors`, at most
`_KEPT_VECTOR_BYTES` = 4 KiB, freed with the lattice; the sphere's rank-1
frame keeps its 80 rows in 640 B), so a later block reads `_dot`'s rows
instead of forming them again.  A block raises `SingularPoint` where a
squared image distance is below `_SINGULAR_R2 * sigma_min^2`; a frame sum
adds rho^2 last, and fl(|t + w|^2) + rho^2 >= rho^2 exactly, so a chunk
whose least rho^2 clears the bound checks no block.

Workspace: the block-sized arrays of a sum (the lattice vectors the lattice
does not keep, images, |U|^2, terms, the pairwise levels and the five
summation arrays: the Neumaier sum and its compensation, and three that
hold a group's pairwise levels or serve as the scratch of a compensated
add) live in buffers of the calling thread (`_take`, a `threading.local`)
that persist from call to call, so a warm sum allocates none of them and
does not fault their pages in again; a take of the last shape hands out the
last view again.  Threads never share a buffer, and a buffer that something
still views is replaced rather than overwritten, so a consumer that keeps
the shells it was handed keeps their values.  The terms, `sq_norm`, the
images and the torus pair write into these buffers through their `out`
parameter, with the bits they have without it.

Checkpoints: the sum to a radius r is a prefix of the sum to any R > r, so
one pass to R can return the sums to several radii (`shell_sum`'s
`checkpoints`), each with the bits of a separate call at its radius, whose
last group ends there.

The cylinder and projective sums are near + far (`_lattice_sum`): shell 0
in full coordinates, and shells 1..R in the lattice frame, where an image
d + w is (t + w, rho), t = d Q along the span and rho the distance to it.
Only the k coordinates t + w vary with the shell row; rho^2 is added last
to each |U|^2, and the far terms leave out the kernel's constant, applied
once to the far sum.  Class B and the torus keep full coordinates.

Every term is the formula of `kernels_euclid`.  Regimes (k = lattice rank,
n = ambient dimension; `periodic_regime` is the one place that compares k
with n):

* `cyl_cauchy`: k <= n-2, plain sum of vector kernels;
* `cyl_cauchy_reg`: k = n-1, subtracts the lattice-point value G(w) per term;
* `cyl_green`: k <= n-3, plain sum of scalar kernels;
* `cyl_green_reg`: k = n-2, subtracts |w|^(2-n) per term (trivial bundle);
* `torus_cauchy_two_point`: k = n, two singularities per cell; the default
  `coupled_subtracted` form couples them as a difference with a first-order
  (gradient) subtraction so summands decay like |w|^(-n-1); the uncoupled
  all-plus form stays available as `paper_literal` behind a warning.

Every kernel, here and in `kernels_pin`, runs one pipeline (`_pipeline`):
its entry's spec and regime checks, the one form check (`check_form`), the
point checks, the shell sum (frame, Class-B image or torus pair), the
reflection superposition, tails per radius, `ConfigError` for a value past
the float range, and the single-point `KernelEval`.

Tail bounds are true upper estimates of the omitted-shell contribution, and
one function owns them all (`_tail`; the public `cauchy_tail`, `green_tail`,
`cauchy_reg_tail`, `green_reg_tail` and `torus_tail` are calls into it):
K C_j / j! (|h| / sigma)^j sigma^(-s0) E(s0 + j).  K |w|^(-s0) is the size
of the kernel (s0 = n - 1 vector, n - 2 scalar), C_j / j! |h|^j |w|^(-s0-j)
bounds its order-j Taylor remainder (j = 0 plain, 1 regularized, 2 the
torus), and E is the Eisenstein-type majorant in units of sigma^(-s)
(`_majorant`), with the separation |x-y| subtracted from the lattice gap,
so the "evaluations at R and 2R differ by at most 2*tail" certificate holds.
Twisted bundles without a subtraction bound adjacent sign-cancelling pairs
at order j + 1 plus one straddling layer at order j.  Only sigma^(-s0)
carries the scale, so a tail scales as its kernel and is finite wherever
the kernel's scale is; the powers are `_power`'s correctly rounded steps,
so a tail has the same bits on every CPU, and the bound is rounded up once
(`_ROUND_UP`) to cover the rounding of its steps.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .clifford import MultiVector, reflect_coords
from .errors import ConfigError, DimensionMismatch, RegimeError, SingularPoint
from .kernels_euclid import _cauchy_term, _frame_term, _green_term, _pair, _power, sphere_area, sq_norm
from .lattice import BundleCharacter, Lattice, _check_radius, _dot, _shell_rows, _shell_size, char_sign

# a squared distance below _SINGULAR_R2 * sigma_min^2 is on the singular orbit
_SINGULAR_R2 = 1e-18


class NonConvergentSeriesWarning(UserWarning):
    """Emitted when a paper-literal series without a convergence guarantee runs."""


@dataclass
class KernelEval:
    """A kernel value with its truncation radius and certified tail estimate."""

    value: MultiVector
    trunc_radius: int
    tail_bound: float

    @property
    def vector(self) -> np.ndarray:
        return self.value.vector_part

    @property
    def scalar(self) -> float:
        return self.value.scalar_part

    def to_dict(self) -> dict:
        return {
            "n": self.value.n,
            "coeffs": [float(c) for c in self.value.coeffs],
            "trunc_radius": int(self.trunc_radius),
            "tail_bound": float(self.tail_bound),
        }

    @classmethod
    def from_batch(cls, vals, tails, R: int, n: int) -> "KernelEval":
        """Row 0 of a batched result: values (B, n) give a vector, (B,) a scalar."""
        v = np.asarray(vals)[0]
        value = MultiVector.from_vector(v) if v.ndim else MultiVector.scalar(n, float(v))
        return cls(value, R, float(np.atleast_1d(tails)[0]))


# -- tail machinery -----------------------------------------------------------

# every certified tail is rounded up by this factor, more than the rounding of its steps
_ROUND_UP = 1.0 + 2.0**-46


def eisenstein_tail(L: Lattice, R: int, s: float, offset=0.0):
    """Upper bound on sum_{||m||_inf > R} |d + m_1 v_1 + ...|^(-s), |d| <= `offset` (scalar or array):
    sigma_min^(-s) times `_majorant`, so s is an integer or a half-integer (`_power`).  R = 0 gives inf."""
    R = _check_radius(R)
    if 2 * s != round(2 * s):
        raise ConfigError(f"majorant exponent s = {s} is not an integer or a half-integer")
    with np.errstate(divide="ignore", over="ignore"):
        out = _majorant(L, R, s, offset) * _power(np.array([L.sigma_min]), -s) * _ROUND_UP  # s <= k raises first
    return float(out[0]) if np.ndim(offset) == 0 else out


def _majorant(L: Lattice, R: int, s: float, offset, layer: bool = False) -> np.ndarray:
    """E(s): that sum in units of sigma^(-s), with the one gap rule of every tail.

    On the omitted shells |d + w| >= g sigma ||m||_inf, g = (sigma - offset/(R+1)) / sigma clamped
    at 0 (no gap left, or R = 0: inf); shell r holds 2k (2r+1)^(k-1) <= 2k 3^(k-1) r^(k-1) points, so
    E(s) <= 2k 3^(k-1) / (s-k) g^(-s) R^(k-s) by integral comparison.  A `layer` is one shell at R.
    """
    k = L.k  # exact integer shell counts
    g = np.maximum((L.sigma_min - np.atleast_1d(offset) / (R + 1.0)) / L.sigma_min, 0.0)
    if layer:
        return 2 * k * (2 * R + 1) ** (k - 1) * _power(g * R, -s)
    if s <= k:
        raise RegimeError(f"majorant diverges: s = {s} <= lattice rank {k}")
    return 2 * k * 3 ** (k - 1) / (s - k) * _power(g, -s) * _power(np.array([float(R)]), k - s)


def _tail(L: Lattice, R: int, vector: bool, offset, j: int = 0, h=None, alternating: bool = False):
    """The one certified tail: K C_j / j! (|h| / sigma)^j sigma^(-s0) E(s0 + j), rounded up.

    The kernel is K |w|^(-s0) in size (s0 = n - 1 vector, n - 2 scalar), C_j / j! |h|^j |w|^(-s0-j)
    bounds the order-j Taylor remainder of a summand shifted by h (0: plain sums, 1: regularized,
    2: the torus's gradient-subtracted pair), and E is the `_majorant` at `offset`.  `alternating`
    (a twisted bundle, no subtraction) bounds adjacent pairs m, m + e_1 at order j + 1 in v_1, half
    as many, plus one straddling layer at order j.  Only sigma^(-s0) carries the kernel's scale.
    """
    n, sigma, offset = L.n, L.sigma_min, np.asarray(offset, dtype=float)
    s0 = n - 1 if vector else n - 2
    C = (1.0, n + 1.0 if vector else n - 2.0, math.sqrt(n) * n * (n + 5.0))  # C_2 is crude but safe
    with np.errstate(divide="ignore", over="ignore"):
        unit = _power(np.array([sigma]), -s0) / (sphere_area(n) * (1.0 if vector else n - 1.0))
        hj = _power(sigma / np.asarray(h, dtype=float), -j) / math.factorial(j) if j else 1.0
        if alternating:
            v1 = float(np.linalg.norm(L.basis[0]))
            bound = (C[j + 1] * 0.5 * v1 / sigma * _majorant(L, R, s0 + j + 1, offset + v1)
                     + C[j] * _majorant(L, R, s0 + j, offset, layer=True))
        else:
            bound = C[j] * _majorant(L, R, s0 + j, offset)
        out = unit * hj * bound * _ROUND_UP
    return float(out[0]) if offset.ndim == 0 else out


def _pair_batch(x, y, n: int) -> tuple[np.ndarray, bool]:
    """x - y of the checked pair (`kernels_euclid._pair`), new and coordinate-major, and whether both
    were single points; a squared distance past the float range raises `ConfigError`."""
    X, Y, single = _pair(x, y, n)
    with np.errstate(over="ignore"):
        D = _difference(X, Y)
        far = not np.isfinite(sq_norm(D)).all()
    if far:
        raise ConfigError("points too far apart: a squared distance overflows")
    return D, single


def _difference(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X - Y of (B, n) or (n,) points, broadcast: new and coordinate-major (`_new`)."""
    X, Y = np.atleast_2d(X, Y)
    D = _new(np.broadcast_shapes(X.shape, Y.shape))
    np.subtract(X.T, Y.T, out=D.T)  # transposed, numpy's loop runs down each column of D
    return D


def _row_sums(A: np.ndarray) -> np.ndarray:
    """A summed over its last axis with the bits numpy's reduction gives a row-major A, in any layout.

    numpy adds a row of fewer than eight values left to right in either layout,
    but a longer contiguous row by its unrolled pairwise sum, which only the
    row-major layout takes: those rows are summed from a row-major copy.
    """
    return np.add.reduce(A if A.shape[-1] < 8 else np.ascontiguousarray(A), axis=-1)


def _norms(P: np.ndarray) -> np.ndarray:
    """|P| over the last axis: the bits of `np.linalg.norm(P, axis=-1)` on a row-major P."""
    return np.sqrt(_row_sums(P * P))


def _check_not_on_orbit(L: Lattice, D: np.ndarray, what: str):
    nearest = _dot(np.rint(L.coords(D)), L.basis)
    if np.any(sq_norm(D - nearest) < _SINGULAR_R2 * L.sigma_min**2):
        raise SingularPoint(f"{what} lies on the singular lattice orbit")


# -- the shell-sum engine ------------------------------------------------------

class _Workspace(threading.local):
    """The calling thread's scratch buffers, kept from call to call by key, and the last view of each."""

    def __init__(self):
        self.buffers = {}
        self.views = {}  # key: (shape, lead, the view `_take` last returned)


_WORKSPACE = _Workspace()


def _refs_when_alone() -> tuple:
    """The reference counts `_take` reads when only the workspace holds a buffer, and, when it
    holds the buffer's last view too, those of that view and of the buffer."""
    buffers = {0: np.empty(1)}
    buf = buffers.get(0)
    alone = sys.getrefcount(buf)
    views = {0: ((1,), 1, buf[:1])}
    del buf
    last = views.get(0)
    return alone, sys.getrefcount(last[2]), sys.getrefcount(last[2].base)


_ALONE, _VIEW_ALONE, _VIEWED_ALONE = _refs_when_alone()


def _take(key, shape: tuple, lead: int = 2) -> np.ndarray:
    """An uninitialised float array of `shape` in the calling thread's buffer `key`.

    The axes after the first `lead` (values or coordinates) are slowest in
    memory, then the leading ones (rows, points) in order: the layout numpy
    gives the engine's images and terms.  The buffer outlives the call and is
    reused by the next take of `key` on the thread, unless an array made from
    it is still alive: then a new buffer takes its place, and whatever holds
    the old one keeps its values.  A buffer too small for a take is replaced
    by one that fits.  A take of the last shape returns the last view again
    while nothing else holds it or the buffer.
    """
    ws = _WORKSPACE
    last = ws.views.get(key)
    if (last is not None and last[0] == shape and last[1] == lead and sys.getrefcount(last[2]) == _VIEW_ALONE
            and sys.getrefcount(last[2].base) == _VIEWED_ALONE):
        return last[2]
    ws.views.pop(key, None)
    del last  # the old view goes before the buffer's references are read
    size = math.prod(shape)
    buf = ws.buffers.get(key)
    if buf is None or buf.size < size or sys.getrefcount(buf) > _ALONE:
        buf = ws.buffers[key] = np.empty(size)
    view = _laid_out(buf[:size], shape, lead)
    ws.views[key] = (shape, lead, view)
    return view


def _new(shape: tuple, lead: int = 1) -> np.ndarray:
    """A new uninitialised float array of `shape` laid out as `_take` lays out its buffers.

    With one leading axis, a (B, n) array is coordinate-major: each of its n
    columns is contiguous.
    """
    return _laid_out(np.empty(math.prod(shape)), shape, lead)


def _laid_out(flat: np.ndarray, shape: tuple, lead: int) -> np.ndarray:
    """`flat` viewed as `shape`, the axes after the first `lead` slowest in memory."""
    tail = shape[lead:]
    flat = flat.reshape(tail + shape[:lead])
    return flat.transpose(_behind(len(tail), len(shape))) if tail else flat


@lru_cache(maxsize=None)
def _behind(tail: int, ndim: int) -> tuple:
    """The axes that move the first `tail` of `ndim` axes behind the rest (few pairs occur)."""
    return tuple(range(tail, ndim)) + tuple(range(tail))


def _takes_out(fn) -> bool:
    """Whether an image, term or squared norm has an `out` parameter to write into."""
    code = getattr(fn, "__code__", None)
    return code is not None and "out" in code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]


# trees of fewer values than this allocate their levels (`_pairwise_sum`)
_SMALL = 2**12


def _pairwise_sum(t: np.ndarray, out=None) -> np.ndarray:
    """Balanced pairwise tree over axis 0, carrying the odd row up a level.

    Every add is elementwise across the trailing axes, so the bits of one
    point's sum do not depend on how many other points share the array.
    The node at level j covers rows [i 2^j, min((i+1) 2^j, m)): the sum of
    a block of 2^j rows that starts at a multiple of 2^j is one node, and
    the tree over the block sums is the rest of the tree, so `shell_sum`'s
    row blocks keep every bit.

    A tree of at least `_SMALL` values writes its levels into the two parts
    of one workspace array (`_take`): level 1 fills the first ceil(m/2)
    rows, level 2 the next ceil(ceil(m/2)/2), level 3 the first part again;
    the sum is a view of it that stays valid while it is held.  A smaller
    tree allocates its levels, which costs less than a take.  With `out` (a
    row's shape) the root add writes there, and a single row is copied there.
    """
    m = t.shape[0]
    if m == 1:
        if out is None:
            return t[0]
        out[...] = t[0]
        return out
    if t.size < _SMALL:
        while m > 2:
            s = t[0 : m - 1 : 2] + t[1:m:2]
            t = np.concatenate((s, t[-1:])) if m % 2 else s
            m = t.shape[0]
    elif m > 2 or out is None:
        half = (m + 1) // 2
        levels = _take("levels", (half + (half + 1) // 2 * (half > 1),) + t.shape[1:])
        lv, spare = levels[:half], levels[half:]
        while m > 2:
            np.add(t[0 : m - 1 : 2], t[1:m:2], out=lv[: m // 2])
            if m % 2:
                lv[m // 2] = t[m - 1]
            t, lv, spare, m = lv, spare, lv, (m + 1) // 2
        out = lv[0] if out is None else out
    return np.add(t[0], t[1], out=out)


def _neumaier(acc, comp, x, s, bx, e):
    """One compensated add of x, in place: s = acc + x and comp += (acc - (s - bx)) + (x - bx).

    bx = s - acc is the part of x that reached s (TwoSum).  `e` may be x's own
    buffer: x is read for the last time as it is overwritten.
    """
    np.add(acc, x, out=s)
    np.subtract(s, acc, out=bx)
    np.subtract(x, bx, out=e)
    np.subtract(s, bx, out=bx)
    np.subtract(acc, bx, out=bx)
    np.add(bx, e, out=e)
    np.add(comp, e, out=comp)


def _count(live, terms, free):
    """Add the pairwise sum of an item's `terms` to the binary counter `live`, in place.

    `live` holds [level, buffer] pairs, levels falling: level j is the pairwise
    sum of 2^j consecutive item sums.  An item sum starts at level 0, written
    into a buffer from the list `free` (a new one if `free` is empty), and two
    nodes of one level merge into the next in the earlier one's buffer; the
    other goes to `free`.
    """
    if live and live[-1][0] == 0:
        np.add(live[-1][1], _pairwise_sum(terms), out=live[-1][1])
        live[-1][0] = 1
        while len(live) > 1 and live[-2][0] == live[-1][0]:
            _, top = live.pop()
            np.add(live[-1][1], top, out=live[-1][1])
            live[-1][0] += 1
            free.append(top)
    else:
        buf = free.pop() if free else np.empty_like(live[0][1])
        _pairwise_sum(terms, out=buf)
        live.append([0, buf])


def _flush(live, free):
    """The counter's sum, low levels first: `_pairwise_sum`'s tree over its item sums.

    Each level is added to the carry from the levels below it, in place; the
    counter is left empty, and every buffer but the sum's goes to `free`.
    """
    x = live.pop()[1]
    while live:
        below = live.pop()[1]
        np.add(below, x, out=below)
        free.append(x)
        x = below
    return x


def _cut(acc, comp, live):
    """acc + comp of a sum whose last group ends here: the counter's flush added to copies."""
    x = _flush([[level, buf.copy()] for level, buf in live], [])
    acc, comp, s = acc.copy(), comp.copy(), np.empty_like(acc)
    _neumaier(acc, comp, x, s, np.empty_like(acc), x)
    return s + comp


def kahan_shell_sum(shape, shells, prefixes=(), groups=()):
    """Sum an iterator of (m, *shape) term arrays to one array of `shape`.

    Each item is summed by a pairwise tree over its rows.  The items fall into
    groups of consecutive items, `groups` giving the item count of each (every
    item after them a group of its own, the default).  A group's item sums are
    added by the tree `_pairwise_sum` builds over them, and the group sums are
    accumulated with Neumaier compensation, the rounding error of every add
    taken exactly (TwoSum) and added back at the end.  The order of
    operations is that of `s = acc + x; bx = s - acc; comp += (acc - (s - bx))
    + (x - bx); acc = s`.  `shell_sum` hands over a shell as one item, or a
    split shell as one group of its row blocks, each a subtree of the shell's
    tree, so the group's tree is the shell's.

    Everything runs in place, in five workspace arrays (`_take`) laid out as
    the first item's sum, reused from call to call on a thread: `acc`, `comp`
    and three more.  A group carries its tree as a binary counter (`_count`)
    in the three, level j holding the sum of 2^j items, and at its end
    flushes the levels low to high (`_flush`); the flushed buffer and the two
    left free are then the scratch of the add.  A group of up to eight items
    needs no more than three levels; a larger one allocates more.  Each item
    is dropped before the next is drawn, so the engine may write the next
    block into its buffer; the result is a new array.

    With `prefixes`, nondecreasing item counts no larger than the number of
    items, the result is (len(prefixes) + 1, *shape): row i is `acc + comp`
    after the first prefixes[i] items (zeros after none), the last row the
    whole sum.  That add is the one that ends a sum over only those items, so
    each row has the bits of that shorter sum.  A prefix inside a group ends
    that shorter sum's last group there: a copy of the counter is flushed and
    added to copies of `acc` and `comp` (`_cut`), and the pass goes on with
    the whole group.  Prefixes out of order, or past the last item, raise
    `ValueError`.
    """
    if any(b < a for a, b in zip(prefixes, prefixes[1:])):
        raise ValueError(f"prefixes must be nondecreasing item counts, got {list(prefixes)}")
    ends = set(itertools.accumulate(groups))
    last_end = max(ends, default=0)
    acc = None
    rows = [np.zeros(shape) for c in prefixes if c == 0]
    live = []  # the counter of the current group
    done = 0
    for terms in shells:
        if acc is None:
            acc, comp, *free = (_take(("kahan", i), terms.shape[1:], 1) for i in range(5))
            acc.fill(0.0)
            comp.fill(0.0)
        _count(live, terms, free)
        del terms  # the item's buffers are free for the next block
        done += 1
        if done in ends or done > last_end:  # the item ends its group: one compensated add
            x = _flush(live, free)  # the counter's sum, ours to overwrite as the add's scratch
            _neumaier(acc, comp, x, free[0], free[1], x)
            free.append(x)
            acc, free[0] = free[0], acc
        while len(rows) < len(prefixes) and prefixes[len(rows)] == done:
            rows.append(_cut(acc, comp, live) if live else acc + comp)
    if live:  # the items ended inside a group
        x = _flush(live, free)
        _neumaier(acc, comp, x, free[0], free[1], x)
        acc = free[0]
    if len(rows) < len(prefixes):
        raise ValueError(f"prefixes {list(prefixes)} name more than the {done} items summed")
    total = np.zeros(shape) if acc is None else acc + comp
    return np.stack(rows + [total]) if prefixes else total


@lru_cache(maxsize=None)
def _groups(k: int, start: int, R: int) -> tuple:
    """The compensation groups of shells start..R of rank k: a shell count per group.

    Shell 0 is a group of its own.  At rank 1, where every later shell has 2
    rows, shells from 1 on make groups of eight, the last ending at R; at
    rank >= 2 (8 rows in shell 1 at k = 2, and more after) every shell is a
    group of its own.  So the groups depend only on k and the radii.
    """
    if k > 1:
        return (1,) * (R + 1 - start)
    whole, part = divmod(R + 1 - max(start, 1), 8)
    return (1,) * (start == 0) + (8,) * whole + (part,) * (part > 0)


# a row block holds at most this many image coordinates or values (256 KiB of floats)
_TILE = 2**15


def _block_rows(width: int) -> int:
    """Shell rows per block for images of `width` coordinates: a power of two, at most `_TILE` in all."""
    return 1 << (max(1, _TILE // width).bit_length() - 1)


def _chunks(B: int, width: int):
    """Point chunks [lo, hi) of a batch of B: `_TILE // width` points each (at least 1).

    `width` is the wider of image coordinates and values per row and point,
    so a row of a chunk, and every block of `_block_rows` rows, fits `_TILE`.
    """
    per = max(1, _TILE // width)
    for lo in range(0, B, per):
        yield lo, min(B, lo + per)


@lru_cache(maxsize=32)
def _plan(k: int, start: int, R: int, cps: tuple, rows: int, row_width: int, tile: int) -> tuple:
    """The row blocks of shells start..R of rank k for one chunk, cached: (units, prefixes, groups).

    A unit (r, a, c) starts at row a of the shell order, (2r - 1)^k for r >= 1.
    c = 0 splits shell r, of more than `rows` rows, into blocks of `rows` rows;
    c >= 1 evaluates shells r..r+c-1 in one block, a run of shells r >= 1 of
    at most `rows` rows that fits `tile` at `row_width` values per row.  The
    prefixes (before each checkpoint of `cps`) and groups (`_groups`) count
    the items `kahan_shell_sum` is handed, a split shell's blocks one each.
    """
    units, r = [], start
    while r <= R:
        m = _shell_size(k, r)
        c = 0 if m > rows else 1  # 0: split shell r
        while c and r > 0 and r + c <= R:
            size = _shell_size(k, r + c)
            if size > rows or (m + size) * row_width > tile:
                break
            c, m = c + 1, m + size
        units.append((r, (2 * r - 1) ** k if r else 0, c))
        r += max(c, 1)
    # the items of the first i shells: a shell, or each row block of a split one
    ends = (0, *itertools.accumulate(-(-_shell_size(k, r) // rows) for r in range(start, R + 1)))
    cuts = (0, *itertools.accumulate(_groups(k, start, R)))  # shells before each group end
    prefixes = tuple(ends[max(0, c + 1 - start)] for c in cps)
    return tuple(units), prefixes, tuple(ends[b] - ends[a] for a, b in zip(cuts, cuts[1:]))


# a lattice keeps the vectors of its first shells (`Lattice._vectors`) up to this many bytes
_KEPT_VECTOR_BYTES = 4 * 1024


def _lattice_vectors(L: Lattice, Ms: np.ndarray, a: int) -> np.ndarray:
    """W = Ms @ basis (`_dot`) of the coefficient rows Ms, rows a.. of L's shell order: (m, n).

    L keeps the W of consecutive rows, (a0, W) in `L._vectors`: a block inside
    them is a view; one that overlaps or touches them (any, while none are
    kept) is formed and kept with them while they fit `_KEPT_VECTOR_BYTES`, in
    a longer read-only array that replaces the last, so a kept row has `_dot`'s bits.
    """
    a0, kept = L._vectors
    m, b0 = len(Ms), a0 + len(kept)
    if a0 <= a and a + m <= b0:
        return kept[a - a0 : a - a0 + m]
    W = _dot(Ms, L.basis, _take("lattice vectors", (m, L.n), 1))
    lo, hi = (min(a, a0), max(a + m, b0)) if len(kept) else (a, a + m)
    if (hi - lo) * L.n * 8 > _KEPT_VECTOR_BYTES or hi - lo > m + len(kept):  # too large, or apart
        return W
    longer = _new((hi - lo, L.n))
    if len(kept):
        longer[a0 - lo : b0 - lo] = kept
    longer[a - lo : a + m - lo] = W
    longer.setflags(write=False)
    L._vectors = (lo, longer)
    return longer[a - lo : a + m - lo]


def _translate(D: np.ndarray, Ms: np.ndarray, W: np.ndarray, out=None) -> np.ndarray:
    """Image differences d + w for every shell row and point: (m, b, n), into `out` if given."""
    return np.add(D[None, :, :], W[:, None, :], out=out)


def _at_lattice(term):
    """Per-shell subtraction of the kernel at the lattice point itself."""
    return lambda W: term(W[:, None, :], sq_norm(W)[:, None])


def _radii(R, checkpoints=()) -> tuple:
    """The radii of one pass, checked: the checkpoints, then R.

    Checkpoints are integers in [0, R), strictly increasing; anything else
    raises `ConfigError`, as a bad R does.
    """
    R = _check_radius(R)
    if isinstance(checkpoints, str) or not hasattr(checkpoints, "__iter__"):
        raise ConfigError(f"checkpoints must be a sequence of radii, got {checkpoints!r}")
    cps = tuple(_check_radius(c, "checkpoint radius") for c in checkpoints)
    if any(b <= a for a, b in zip(cps, cps[1:] + (R,))):
        raise ConfigError(f"checkpoints must be strictly increasing radii below R = {R}, got {list(cps)}")
    return cps + (R,)


def shell_sum(L: Lattice, char: BundleCharacter, D: np.ndarray, R: int, term,
              shape=(), image=_translate, subtract=None, *, checkpoints=(),
              _start: int = 0, _rho2=None) -> np.ndarray:
    """Lattice sum over the sup-norm shells 0..R for each point of D; (B, *shape).

    Row m of shell r contributes chi(m) [term(U, |U|^2) - subtract(W)], where
    U = image(D, Ms, W) holds the image differences (m, b, ..., n) of the chunk
    D, W = m @ basis (`_dot`, so a row has its bits in any block), chi is the
    character sign and `subtract` (shells r >= 1 only, broadcast over points)
    is optional.  |U|^2 is `sq_norm(U)`, summed over the coordinates left to
    right.  Points are summed in chunks; the result does not depend on the
    chunking.  Shells come from `_shell_rows`: a large one is built for each
    chunk that reaches it and dropped after it.

    Terms are evaluated in row blocks of at most `_TILE` image coordinates or
    values of the chunk, whichever are more (module docstring).  A shell of
    more than `_block_rows` rows is split into blocks of that many rows (a
    power of two), each handed to `kahan_shell_sum` as an item and the
    shell's blocks as one group: the counter's tree over the block sums has
    the bits of the whole shell's tree.  Consecutive smaller shells r >= 1
    share one block while their rows fit the tile, and each is handed over
    as its own row slice of the block's terms, an item as if alone.  A run
    of one shell is handed over as it is, uncopied.  Each chunk takes these
    blocks from `_plan`, cached by rank, radii, block rows, the chunk's
    values per row and `_TILE` (read at the call, as `_block_rows` is).

    The shell sums are compensated a group at a time (`_groups`, from L.k,
    `_start` and R only; neither blocks nor chunks follow them).  Per chunk,
    the groups and the checkpoints' prefixes go to `kahan_shell_sum` counted
    in items: a split shell's group counts its blocks.

    A block's W comes from `_lattice_vectors`: a view of the vectors L keeps,
    or formed by `_dot`, with the same bits.

    `image` gets the chunk D (b, ..., n) and the block's W (m, n), both
    coordinate-major (module docstring); an image that returns another layout
    gets the same bits, only slower.

    Workspace: an `image`, `term` or `sq_norm` with an `out` parameter
    writes into the calling thread's buffers (`_take`): the images and |U|^2
    into their own, and the terms over the images (vector terms, the images'
    buffer as wide as their values) or over |U|^2 (scalar terms), as neither
    is read again, else into a buffer of their own (the torus pair, which
    drops the pair axis of U); the subtraction and the character sign then
    apply in place.  A callable without `out` (a stand-in term or image) returns its
    own arrays.  Each item handed to `kahan_shell_sum` is a view of a
    buffer that the next block reuses once the view is gone.

    R must be an integer >= 0 (an integral float or numpy integer counts as
    the int); a bool, a fraction, a string or a negative R raises
    `ConfigError`.  A squared image distance below `_SINGULAR_R2 * sigma_min^2`
    raises `SingularPoint`.  `_lattice_sum` sums the frame lattice at t from
    shell 1 (`_start`), adding rho^2 last to each |U|^2 (`_rho2`, one per
    point), so a chunk whose least rho^2 clears that bound checks no block;
    Class B and the torus sum L from shell 0 and check every block.

    Checkpoints: with `checkpoints`, strictly increasing radii in [0, R), one
    pass to R returns (len(checkpoints) + 1, B, *shape), the sum to each
    checkpoint and then to R.  Each row is `kahan_shell_sum`'s `acc + comp`
    after the checkpoint's shell, the add that ends a separate call at that
    radius (whose last group ends at the checkpoint: inside a group, a copy of
    the group's partial tree is added), so it has that call's bits whatever
    the chunks and row blocks.  A checkpoint below `_start` is the empty sum,
    zeros, as such a call gives.
    """
    radii = _radii(R, checkpoints)
    R = radii[-1]
    B = D.shape[0]
    out = _new((len(radii), B) + shape, 2)  # the layout of `kahan_shell_sum`'s rows: a column per value
    singular = _SINGULAR_R2 * L.sigma_min**2
    image_out, norm_out, term_out = _takes_out(image), _takes_out(sq_norm), _takes_out(term)
    width = max(math.prod(shape), math.prod(D.shape[1:]))  # per row and point: image coordinates or values
    for lo, hi in _chunks(B, width):
        Dc = np.asfortranarray(D[lo:hi])
        rows = _block_rows((hi - lo) * width)
        units, prefixes, groups = _plan(L.k, _start, R, radii[:-1], rows, (hi - lo) * width, _TILE)
        cols = max((Dc.shape[-1],) + shape[-1:])  # the images' buffer is as wide as the values
        rho2 = None if _rho2 is None else _rho2[lo:hi]
        # fl(|t + w|^2) + rho^2 >= rho^2: a chunk whose rho^2 clears the bound clears every block
        check = rho2 is None or rho2.min() < singular

        def block(Ms, r, a):  # the terms of coefficient rows Ms, from row a of the shell order
            m = len(Ms)
            W = _lattice_vectors(L, Ms, a)
            size = (m, hi - lo) + shape
            wide = _take("images", (m,) + Dc.shape[:-1] + (cols,)) if image_out else None
            U = image(Dc, Ms, W, out=wide[..., : Dc.shape[-1]]) if image_out else image(Dc, Ms, W)
            r2 = sq_norm(U, out=_take("norms", U.shape[:-1])) if norm_out else sq_norm(U)
            if rho2 is not None:
                r2 += rho2
            if check and r2.min() < singular:
                raise SingularPoint("evaluation point on a kernel singularity")
            if term_out:  # over the images (vector terms; the buffer is as wide) or |U|^2: neither is read again
                t = term(U, r2, out=wide if image_out and wide.shape == size else
                         r2 if norm_out and r2.shape == size else _take("terms", size))
            else:
                t = term(U, r2)
            if r > 0 and subtract is not None:
                t -= subtract(W)
            if char.l:
                t *= char_sign(char, Ms).reshape((-1,) + (1,) * (t.ndim - 1))
            return t

        def shells():
            for r, a, c in units:
                if not c:  # a split shell: each block an item, a subtree of the shell's tree
                    Ms = _shell_rows(L.k, r)
                    for i in range(0, len(Ms), rows):
                        yield block(Ms[i : i + rows], r, a + i)
                elif c == 1:  # handed over as it is, uncopied
                    yield block(_shell_rows(L.k, r), r, a)
                else:  # a run: a row slice per shell, its own tree, add and checkpoint
                    run = [_shell_rows(L.k, q) for q in range(r, r + c)]
                    t = block(np.concatenate(run), r, a)
                    for Ms in run:
                        yield t[: len(Ms)]
                        t = t[len(Ms) :]
                    del t  # free for the next block

        out[:, lo:hi] = kahan_shell_sum((hi - lo,) + shape, shells(), prefixes, groups)
    return out if len(radii) > 1 else out[0]


def _lattice_sum(L: Lattice, char: BundleCharacter, D: np.ndarray, R: int, vector: bool,
                 regularized: bool, image=None, checkpoints=()) -> np.ndarray:
    """The shell sum of one regime: its Euclidean term and its per-term subtraction.

    A regularized sum subtracts the kernel at the lattice point, G(w) or
    |w|^(2-n), from every term of shells r >= 1.  The scalar subtraction is an
    even function of w, so a sign-flipping reindex would leave a constant
    defect on twisted bundles.  Those get no scalar subtraction: the
    character's own alternation makes the shell-ordered series summable, and
    translation equivariance is exact in the limit.

    Without an `image`, the sum is near + far.  The near term is shell 0 in full
    coordinates, so at R = 0 the sum has the bits of `cauchy_g_batch` and
    `green_h_batch`.  The far sum covers shells 1..R in the lattice frame
    (`Lattice._frame`): images (t + w, rho), t = D Q, rho = |P|, P = D - t Q^T,
    hold the k coordinates t + w, and rho rho is added last to |U|^2 (`_rho2`).
    The terms are `_frame_term`'s, their constant applied once to the far sum;
    a vector one maps back as far[:, :k] Q^T + P far[:, k].  The near term is
    added to the far sum in place (near + far and far + near have the same
    bits).  Class B passes its own `image` and sums every shell in full
    coordinates.  With `checkpoints`
    (see `shell_sum`) each checkpoint's far sum gets the same near term and
    map-back: a row of (len(checkpoints) + 1, B, ...) per radius.
    """
    term = _cauchy_term(L.n) if vector else _green_term(L.n)
    subtracted = regularized and (vector or char.l == 0)
    if image is not None:
        return shell_sum(L, char, D, R, term, (L.n,) if vector else (), image,
                         _at_lattice(term) if subtracted else None, checkpoints=checkpoints)
    r2 = sq_norm(D)
    if np.any(r2 < _SINGULAR_R2 * L.sigma_min**2):
        raise SingularPoint("evaluation point on a kernel singularity")
    Q, reduced = L._frame
    t = _dot(D, Q)
    P = _dot(t, Q.T)
    np.subtract(D, P, out=P)
    rho = np.sqrt(sq_norm(P))
    far_term, at_lattice, finish = _frame_term(L.n, vector)
    far = finish(shell_sum(reduced, char, t, R, far_term, (L.k + 1,) if vector else (),
                           subtract=at_lattice if subtracted else None, checkpoints=checkpoints, _start=1,
                           _rho2=rho * rho))
    if vector:
        back = _dot(far[..., : L.k], Q.T)
        back += P * far[..., L.k :]
        far = back
    far += term(D, r2)  # near + far, in place
    return far


# -- cylinder sums as functions of the difference ----------------------------

def cyl_cauchy_diff(L: Lattice, char: BundleCharacter, D: np.ndarray, R: int, *,
                    checkpoints=()) -> np.ndarray:
    """Plain periodized vector kernel as a function of the difference; (B, n)."""
    return _lattice_sum(L, char, D, R, True, False, checkpoints=checkpoints)


def cyl_cauchy_reg_diff(L: Lattice, char: BundleCharacter, D: np.ndarray, R: int, *,
                        checkpoints=()) -> np.ndarray:
    """Regularized vector kernel (k = n-1): G(d) + sum' chi [G(d+w) - G(w)]."""
    return _lattice_sum(L, char, D, R, True, True, checkpoints=checkpoints)


def cyl_green_diff(L: Lattice, char: BundleCharacter, D: np.ndarray, R: int, *,
                   checkpoints=()) -> np.ndarray:
    """Plain periodized scalar kernel as a function of the difference; (B,)."""
    return _lattice_sum(L, char, D, R, False, False, checkpoints=checkpoints)


def cyl_green_reg_diff(L: Lattice, char: BundleCharacter, D: np.ndarray, R: int, *,
                       checkpoints=()) -> np.ndarray:
    """Regularized scalar kernel (k = n-2); twisted bundles get no subtraction."""
    return _lattice_sum(L, char, D, R, False, True, checkpoints=checkpoints)


# -- tail bounds per kernel ----------------------------------------------------

def cauchy_tail(L: Lattice, R: int, sep):
    return _tail(L, R, True, sep)


def green_tail(L: Lattice, R: int, sep):
    return _tail(L, R, False, sep)


def cauchy_reg_tail(L: Lattice, R: int, sep):
    return _tail(L, R, True, sep, 1, sep)


def green_reg_tail(L: Lattice, R: int, sep, char: BundleCharacter = BundleCharacter(0)):
    # a twisted bundle subtracts nothing: its signs alternate instead
    return _tail(L, R, False, sep, 0, alternating=True) if char.l else _tail(L, R, False, sep, 1, sep)


def torus_tail(L: Lattice, R: int, sep_a, sep_b, dab: float = 0.0, char: BundleCharacter = BundleCharacter(0)):
    sep_a, sep_b = np.asarray(sep_a, dtype=float), np.asarray(sep_b, dtype=float)
    worst = np.maximum(sep_a, sep_b)
    if char.l:  # no gradient subtraction: the coupled difference is first order in a - b
        return _tail(L, R, True, worst, 1, dab, alternating=True)
    return _tail(L, R, True, worst, 2, np.sqrt(sep_a * sep_a + sep_b * sep_b))


# -- the kernel pipeline -----------------------------------------------------------

def periodic_regime(L: Lattice, char: BundleCharacter, vector: bool):
    """The regime the rank picks for a vector or scalar kernel: (total, tail, regularized).

    This is the one place that compares the rank k with n.  Vector kernels sum
    plainly at k <= n-2 and regularized at k = n-1; scalar kernels plainly at
    k <= n-3 and regularized at k = n-2.  Higher ranks raise `RegimeError`.
    `total(D, R, image=None, checkpoints=())` is the regime's shell sum
    (`_lattice_sum`) and `tail(R, sep)` its certified bound.  The cylinder
    and projective kernels pass no `image`: a near term plus a far sum over
    the frame's (t, rho).
    Class B passes its image of D and keeps full coordinates.
    """
    critical = L.n - 1 if vector else L.n - 2
    if L.k > critical:
        raise RegimeError(
            "vector kernel needs k <= n-1; use torus_cauchy_two_point at k = n"
            if vector else "scalar kernel needs k <= n-2"
        )
    regularized = L.k == critical
    if vector:
        bound = cauchy_reg_tail if regularized else cauchy_tail
        tail = lambda R, sep: bound(L, R, sep)
    else:
        tail = lambda R, sep: green_reg_tail(L, R, sep, char) if regularized else green_tail(L, R, sep)

    def total(D, R, image=None, checkpoints=()):
        return _lattice_sum(L, char, D, R, vector, regularized, image, checkpoints)

    return total, tail, regularized


_FORMS = ("orbit", "paper_literal")


def check_form(form, forms=_FORMS) -> str:
    """The one check of a kernel form: one of `forms`, else `ConfigError`."""
    if form not in forms:
        raise ConfigError(f"unknown form {form!r}; use {' or '.join(map(repr, forms))}")
    return form


def _pipeline(n: int, x, y, R, checkpoints, total, tail, *, sep=_norms,
              check=None, axes=None, negate_fiber=False, form="orbit", forms=_FORMS):
    """The one kernel pipeline: (values, tails) of a batch, or one point's `KernelEval`.

    Each entry checks its spec and picks its regime: `total(P, R, checkpoints=...)`,
    its shell sum at differences P, and `tail(r, sep)`, its bound at radius r.
    Then: the form, the pair x - y, the radii, and `check(D)`, which returns the
    differences to sum; the sums, superposed over the subsets A of the reflected
    `axes` (P = x minus the source reflected on A for `orbit`, x - y reflected on
    A otherwise, D itself for the empty A; twist rho(A) = (-1)^|A| if the fiber is
    negated; summed from 0.0 into the first subset's new sum, in place, while with
    no `axes` the one sum is the value as it is, -0.0 included); the
    tails per radius at `sep(P)`; under `np.errstate`, so a value past the float
    range raises `ConfigError` before any numpy warning (tails may be inf); and
    the wrap, a `KernelEval` exactly when x and y are single points (n,).
    """
    check_form(form, forms)
    D, single = _pair_batch(x, y, n)
    radii = _radii(R, checkpoints)
    if single and len(radii) > 1:
        raise ConfigError("checkpoints need a batch of points; a single point returns one KernelEval")
    if check is not None:
        D = check(D)

    def part(P):  # the sum at P, then its tails, a row per radius
        vals, s = total(P, radii[-1], checkpoints=radii[:-1]), sep(P)
        tails = [tail(r, s) for r in radii]
        return vals, (np.stack(tails) if len(radii) > 1 else tails[0])

    with np.errstate(all="ignore"):
        if axes is None:
            vals, tails = part(D)
        else:
            X = np.asarray(x, dtype=float).reshape(-1, n)
            vals, tails = None, 0.0
            for subset in _reflection_subsets(axes):
                if not subset:  # X - y, and x - y reflected on no axis, are D bit for bit
                    P = D
                else:
                    P = _difference(X, reflect_coords(y, subset)) if form == "orbit" else reflect_coords(D, subset)
                v, t = part(P)
                # vals + rho v, rho = +-1, in place: v is new, and x + (-v) is x - v
                add = np.subtract if negate_fiber and len(subset) % 2 else np.add
                vals = add(0.0, v, out=v) if vals is None else add(vals, v, out=vals)
                tails = tails + t
    if not np.isfinite(vals).all():
        raise ConfigError(f"kernel value is not finite: its terms leave the float range (magnitudes up to "
                          f"{np.finfo(float).max:.4g}); rescale the lattice and the points")
    if single:
        return KernelEval.from_batch(vals, tails, R, n)
    return vals, np.asarray(tails, dtype=float)


def _reflection_subsets(axes: list[int]) -> list[tuple[int, ...]]:
    """All subsets of the reflected block, enumerated by ascending bitmask."""
    q = len(axes)
    return [tuple(axes[i] for i in range(q) if bits >> i & 1) for bits in range(1 << q)]


# -- cylinder kernels ----------------------------------------------------------------

def _cylinder(L: Lattice, char: BundleCharacter, x, y, R: int, vector: bool, regularized: bool, diff,
              checkpoints):
    """A cylinder entry's pipeline, in the entry's own regime, summed by its public difference
    form `diff`: the entry names it, so a tracer that rebinds module attributes records each sum."""
    _, tail, picked = periodic_regime(L, char, vector)
    if picked != regularized:
        names = ("cyl_cauchy", "cyl_cauchy_reg") if vector else ("cyl_green", "cyl_green_reg")
        raise RegimeError(f"{names[regularized]} does not serve rank k = {L.k} in n = {L.n}; "
                          f"the rank picks {names[picked]}")
    return _pipeline(L.n, x, y, R, checkpoints, partial(diff, L, char), tail,
                     check=lambda D: _check_not_on_orbit(L, D, "x - y") or D)


def cyl_cauchy(L: Lattice, char: BundleCharacter, x, y, R: int, *, checkpoints=()):
    """Periodized Cauchy kernel on a rank-k cylinder, k <= n-2.

    Accepts single points or (B, n) batches; the single-point form returns a
    `KernelEval`, the batched form `(values (B, n), tail_bounds (B,))`.

    A batch may pass `checkpoints`, strictly increasing ints in [0, R): one
    pass to R then returns values (len + 1, B, n) and tails (len + 1, B), a row
    per radius (the checkpoints, then R), each equal to a separate call at
    that radius.  Bad checkpoints, or checkpoints with a single point, raise
    `ConfigError`.  The other batched kernels take `checkpoints` the same way.
    """
    return _cylinder(L, char, x, y, R, True, False, cyl_cauchy_diff, checkpoints)


def cyl_cauchy_reg(L: Lattice, char: BundleCharacter, x, y, R: int, *, checkpoints=()):
    """Regularized Cauchy kernel at critical rank k = n-1."""
    return _cylinder(L, char, x, y, R, True, True, cyl_cauchy_reg_diff, checkpoints)


def cyl_green(L: Lattice, char: BundleCharacter, x, y, R: int, *, checkpoints=()):
    """Periodized Green kernel on a rank-k cylinder, k <= n-3."""
    return _cylinder(L, char, x, y, R, False, False, cyl_green_diff, checkpoints)


def cyl_green_reg(L: Lattice, char: BundleCharacter, x, y, R: int, *, checkpoints=()):
    """Regularized Green kernel at critical rank k = n-2."""
    return _cylinder(L, char, x, y, R, False, True, cyl_green_reg_diff, checkpoints)


# -- torus two-point kernel ------------------------------------------------------

def _jacobian_apply(W: np.ndarray, w2: np.ndarray, V: np.ndarray, n: int) -> np.ndarray:
    """J_G(w) v = |w|^(-n) (v - n (w . v / |w|^2) w) / omega_n for rows w of W, w2 = |w|^2, and v
    of V: (m, B, n).  No power goes past |w|^(-n), so it is finite where the kernel's scale is."""
    c = _dot(W, V.T)  # (m, B)
    c /= w2[:, None]
    c *= n
    J = V[None, :, :] - c[:, :, None] * W[:, None, :]
    J *= _power(w2, -n / 2.0)[:, None, None]
    J /= sphere_area(n)
    return J


def torus_cauchy_two_point(L: Lattice, char: BundleCharacter, a, b, x, R: int,
                           form: str = "coupled_subtracted", *, checkpoints=()):
    """Two-singularity Cauchy kernel on the torus (k = n).

    `coupled_subtracted` sums chi(m) [G(x-a+w) - G(x-b+w) - J_G(w)(b-a... the
    gradient term of the difference], which decays like |w|^(-n-1); the
    singularities at the orbits of a and b then carry opposite residues, which
    is what makes the series summable and pseudo-periodic without constants.
    `paper_literal` sums the uncoupled all-plus terms in shell order and is
    emitted with a NonConvergentSeriesWarning (no convergence guarantee, tail
    bound infinite).  A batch of x may pass `checkpoints`, as `cyl_cauchy` does.
    """
    if L.k != L.n:
        raise RegimeError("torus kernel requires a full-rank lattice (k = n)")
    n = L.n
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    literal = form == "paper_literal"
    term = _cauchy_term(n)

    def check(Da):
        """One source point each, apart and off each other's orbits, x off both: D (B, 2, n)."""
        Dab, one = _pair_batch(a, b, n)
        if not one:
            raise DimensionMismatch("the torus kernel takes one source point a and one b, each of shape (n,)")
        if not np.any(np.abs(Dab) > 0):
            raise SingularPoint("a and b coincide")
        _check_not_on_orbit(L, Dab, "a - b")
        Db, _ = _pair_batch(x, b, n)
        _check_not_on_orbit(L, Da, "x - a")
        _check_not_on_orbit(L, Db, "x - b")
        if literal:
            warnings.warn("paper_literal torus series has no convergence guarantee",
                          NonConvergentSeriesWarning, stacklevel=4)
        return np.stack((Da, Db), axis=1)

    def pair(U, r2, out=None):
        # the images and r2 are not read again (the term writes over them); `out` lends the spare
        spare = out[..., :2] if out is not None and n > 1 else None
        G = term(U, r2, out=U, spare=spare) if _takes_out(term) else term(U, r2)
        return (np.add if literal else np.subtract)(G[:, :, 0], G[:, :, 1], out=out)

    def subtract(W):
        if literal:  # the uncoupled terms add the lattice images of both sources, G(-a-w) + G(-b-w)
            V = np.stack((-a - W, -b - W), axis=1)[:, None]
            return -pair(V, sq_norm(V))
        # the gradient subtraction is even in w, so it is character-safe only on
        # the trivial bundle (where the telescoping reindex cancels it exactly);
        # twisted bundles rely on the character's own alternation instead.
        # (x - a) - (x - b) = b - a for every point; one gradient term per shell row.
        return _jacobian_apply(W, sq_norm(W), -np.atleast_2d(a - b)[:1], n)

    def total(D, R, checkpoints=()):
        image = lambda D, Ms, W, out=None: np.add(D[None, :, :, :], W[:, None, None, :], out=out)
        return shell_sum(L, char, D, R, pair, (n,), image, subtract if literal or char.l == 0 else None,
                         checkpoints=checkpoints)

    def tail(r, sep):
        dab = float(np.linalg.norm(a - b))
        return np.full(len(sep[0]), math.inf) if literal else torus_tail(L, r, *sep, dab, char)

    return _pipeline(n, x, a, R, checkpoints, total, tail, check=check, form=form,
                     forms=("coupled_subtracted", "paper_literal"),
                     sep=lambda D: (_norms(D[:, 0]), _norms(D[:, 1])))
