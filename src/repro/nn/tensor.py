"""Reverse-mode automatic differentiation over numpy arrays.

A small tape-based autograd engine in the spirit of PyTorch's, built
so the MoE layer's full training semantics — gating softmax, top-k
routing, dispatch/combine einsums, expert FFNs — differentiate exactly
like they would in the paper's PyTorch implementation.

Design: every operation returns a new :class:`Tensor` holding the
result, its parents and a closure that maps the output gradient to
parent-gradient contributions.  :meth:`Tensor.backward` topologically
sorts the tape and accumulates gradients into ``.grad`` of leaf
tensors with ``requires_grad=True``.

**Inference mode.**  :func:`inference_mode` is a process-wide context
(mirroring ``default_dispatch_mode`` / ``default_expert_impl``) under
which the tape is never built: :meth:`Tensor._needs_grad` — the single
guard every op consults before attaching parents and a backward
closure — reports False, so ``_parents`` stays empty, no closure is
retained, and every intermediate array is released the moment its
consumer has run.  Tensors produced inside the context are marked, and
calling :meth:`Tensor.backward` on one raises instead of silently
walking an empty tape.

**Arenas.**  :func:`use_arena` installs a step-scoped scratch
allocator (:class:`~repro.nn.buffer_pool.Arena`).  While *both* an
arena is active and inference mode is on, the large-output kernels
below (`matmul`, `gather`, `scatter_add`, `segment_matmul`,
`concatenate`, elementwise add/mul) write their results into pooled
buffers via ``out=`` instead of fresh allocations, so a steady-state
forward loop stops allocating entirely after its first step.  Arena
buffers are recycled at the caller's ``Arena.reset()`` — outputs are
valid until then and must be copied if they need to live longer.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

# -- inference mode + active arena (process-wide, context-managed) ------

_inference_mode = False
_active_arena = None

#: Below this element count an arena indirection costs more than the
#: allocation it saves, and tiny keys would crowd the pool's bounded
#: free lists — small results stay on the plain allocator.
_ARENA_MIN_ELEMS = 4096


@contextmanager
def inference_mode():
    """Forward-only execution: no autograd tape anywhere inside.

    Process-wide and re-entrant, in the style of
    ``repro.moe.layer.default_dispatch_mode``.  Inside the block every
    op short-circuits its tape construction (``_parents`` empty, no
    backward closure), so intermediates die as soon as their consumers
    run and a pure forward pass stops paying training-peak memory.
    Tensors created inside are marked: calling ``backward()`` on one
    raises a :class:`RuntimeError`.

    The flag is a module global read under the GIL — the overlap
    executor's worker threads observe the mode their driving forward
    set, but interleaving training and inference forwards from
    *different* threads is not supported.
    """
    global _inference_mode
    previous = _inference_mode
    _inference_mode = True
    try:
        yield
    finally:
        _inference_mode = previous


def is_inference() -> bool:
    """Whether an :func:`inference_mode` block is active."""
    return _inference_mode


@contextmanager
def use_arena(arena):
    """Install ``arena`` as the ambient scratch allocator.

    Only consulted while :func:`inference_mode` is also active (a
    training forward must keep its intermediates alive for backward,
    which is exactly what an arena's step-scoped recycling forbids).
    Nests: the previous arena is restored on exit.
    """
    global _active_arena
    previous = _active_arena
    _active_arena = arena
    try:
        yield arena
    finally:
        _active_arena = previous


def active_arena():
    """The ambient arena installed by :func:`use_arena`, or None."""
    return _active_arena


def _elems(shape) -> int:
    n = 1
    for s in shape:
        n *= int(s)
    return n


def scratch_empty(shape, dtype=np.float32) -> np.ndarray:
    """An uninitialized result buffer: pooled when an arena is active.

    Falls back to ``np.empty`` outside inference mode, without an
    arena, or for results too small to be worth pooling — callers use
    it unconditionally and get the right allocator either way.
    """
    if (
        _inference_mode
        and _active_arena is not None
        and _elems(shape) >= _ARENA_MIN_ELEMS
    ):
        return _active_arena.empty(shape, dtype)
    return np.empty(shape, dtype=dtype)


def scratch_zeros(shape, dtype=np.float32) -> np.ndarray:
    """Zero-filled variant of :func:`scratch_empty`."""
    if (
        _inference_mode
        and _active_arena is not None
        and _elems(shape) >= _ARENA_MIN_ELEMS
    ):
        return _active_arena.zeros(shape, dtype)
    return np.zeros(shape, dtype=dtype)


def _arena_out(shape) -> Optional[np.ndarray]:
    """A pooled ``out=`` target, or None when the op should allocate.

    Unlike :func:`scratch_empty` this returns None rather than a fresh
    array outside the pooled regime, so ops can keep their original
    (and occasionally cheaper) no-``out`` expression on that path.
    """
    if (
        _inference_mode
        and _active_arena is not None
        and _elems(shape) >= _ARENA_MIN_ELEMS
    ):
        return _active_arena.empty(shape, np.float32)
    return None


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum dimensions that were size-1 in the original.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an autograd tape."""

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_parents",
        "_inference",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw arrays, not Tensors")
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        # Tensors born inside inference_mode() carry no tape by
        # construction; the mark turns a later backward() into a clear
        # error instead of a silent no-op walk of an empty graph.
        self._inference = _inference_mode

    # -- basic introspection -------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """A view with the tape cut."""
        out = Tensor(self.data)
        out.requires_grad = False
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    # -- tape management -----------------------------------------------
    @staticmethod
    def _needs_grad(*tensors: "Tensor") -> bool:
        if _inference_mode:
            # The single choke point every op consults before attaching
            # parents and a backward closure: under inference_mode()
            # nothing ever needs grad, so no tape exists anywhere.
            return False
        return any(t.requires_grad or t._parents for t in tensors)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(np.float32, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode AD from this tensor.

        ``grad`` defaults to ones (only valid for scalar outputs this
        is the conventional seed of 1.0).
        """
        if self._inference:
            raise RuntimeError(
                "this tensor was produced under inference_mode(): no "
                "autograd tape was recorded, so there is nothing to "
                "differentiate.  Re-run the forward outside the "
                "inference_mode() block to train."
            )
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float32)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} != tensor shape {self.shape}"
            )

        order: List[Tensor] = []
        seen = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            seen.add(id(node))
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self)

        grads = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                node._accumulate(node_grad)
            if node._backward is None:
                continue
            for parent, pgrad in node._backward(node_grad):
                if pgrad is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad

    # -- arithmetic ------------------------------------------------------
    @staticmethod
    def _lift(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)

        def backward(g):
            return (
                (self, _unbroadcast(g, self.shape)),
                (other, _unbroadcast(g, other.shape)),
            )

        if _inference_mode:
            data = np.add(
                self.data,
                other.data,
                out=_arena_out(
                    np.broadcast_shapes(self.data.shape, other.data.shape)
                ),
            )
        else:
            data = self.data + other.data
        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g):
            return ((self, -g),)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)

        def backward(g):
            return (
                (self, _unbroadcast(g * other.data, self.shape)),
                (other, _unbroadcast(g * self.data, other.shape)),
            )

        if _inference_mode:
            data = np.multiply(
                self.data,
                other.data,
                out=_arena_out(
                    np.broadcast_shapes(self.data.shape, other.data.shape)
                ),
            )
        else:
            data = self.data * other.data
        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)

        def backward(g):
            return (
                (self, _unbroadcast(g / other.data, self.shape)),
                (
                    other,
                    _unbroadcast(
                        -g * self.data / (other.data * other.data), other.shape
                    ),
                ),
            )

        return self._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(g):
            return ((self, g * exponent * self.data ** (exponent - 1)),)

        return self._make(self.data**exponent, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._lift(other)

        def backward(g):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                return ((self, g * b), (other, g * a))
            if a.ndim == 1:
                ga = g @ np.swapaxes(b, -1, -2)
                gb = np.outer(a, g) if b.ndim == 2 else None
                if gb is None:
                    gb = a[..., :, None] * g[..., None, :]
                return ((self, _unbroadcast(ga, a.shape)),
                        (other, _unbroadcast(gb, b.shape)))
            if b.ndim == 1:
                ga = g[..., :, None] * b[None, :]
                gb = np.swapaxes(a, -1, -2) @ g
                return ((self, _unbroadcast(ga, a.shape)),
                        (other, _unbroadcast(gb, b.shape)))
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            return ((self, _unbroadcast(ga, a.shape)),
                    (other, _unbroadcast(gb, b.shape)))

        a, b = self.data, other.data
        if _inference_mode and a.ndim >= 2 and b.ndim >= 2:
            shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (
                a.shape[-2], b.shape[-1],
            )
            data = np.matmul(a, b, out=_arena_out(shape))
        else:
            data = a @ b
        return self._make(data, (self, other), backward)

    # -- reductions ------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(g):
            grad = g
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            return ((self, np.broadcast_to(grad, self.shape).copy()),)

        return self._make(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g):
            expanded = out_data
            grad = g
            if axis is not None and not keepdims:
                expanded = np.expand_dims(out_data, axis)
                grad = np.expand_dims(g, axis)
            mask = (self.data == expanded).astype(np.float32)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            return ((self, mask * grad),)

        return self._make(out_data, (self,), backward)

    # -- shape ops --------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(g):
            return ((self, g.reshape(self.shape)),)

        return self._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(g):
            return ((self, g.transpose(inverse)),)

        return self._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        def backward(g):
            return ((self, g.swapaxes(a, b)),)

        return self._make(self.data.swapaxes(a, b), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        def backward(g):
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, g)
            return ((self, grad),)

        return self._make(self.data[index], (self,), backward)

    # -- constructor helper ------------------------------------------------
    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable,
    ) -> "Tensor":
        if Tensor._needs_grad(*parents):
            return Tensor(data, _parents=parents, _backward=backward)
        return Tensor(data)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [Tensor._lift(t) for t in tensors]
    arrays = [t.data for t in tensors]
    if _inference_mode and arrays:
        shape = list(arrays[0].shape)
        shape[axis] = sum(a.shape[axis] for a in arrays)
        data = np.concatenate(arrays, axis=axis, out=_arena_out(tuple(shape)))
    else:
        data = np.concatenate(arrays, axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slices = []
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            slices.append((tensor, g[tuple(index)]))
        return tuple(slices)

    if Tensor._needs_grad(*tensors):
        return Tensor(data, _parents=tuple(tensors), _backward=backward)
    return Tensor(data)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    tensors = [Tensor._lift(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        parts = np.split(g, len(tensors), axis=axis)
        return tuple(
            (tensor, np.squeeze(part, axis=axis))
            for tensor, part in zip(tensors, parts)
        )

    if Tensor._needs_grad(*tensors):
        return Tensor(data, _parents=tuple(tensors), _backward=backward)
    return Tensor(data)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection: ``condition`` is a raw boolean array."""
    a = Tensor._lift(a)
    b = Tensor._lift(b)
    cond = np.asarray(condition)
    data = np.where(cond, a.data, b.data)

    def backward(g):
        return (
            (a, _unbroadcast(np.where(cond, g, 0.0), a.shape)),
            (b, _unbroadcast(np.where(cond, 0.0, g), b.shape)),
        )

    if Tensor._needs_grad(a, b):
        return Tensor(data, _parents=(a, b), _backward=backward)
    return Tensor(data)


def gather(x: Tensor, indices: np.ndarray, axis: int = 0) -> Tensor:
    """Differentiable row gather: ``x[indices]`` along ``axis``.

    ``indices`` is a raw integer array (routing decisions are not
    differentiated); the backward pass scatter-adds the output
    gradient back into the gathered rows, so an index appearing twice
    accumulates both contributions.  This is the forward half of the
    sparse MoE dispatch path — an ``O(N * M)`` data movement instead
    of the dense einsum's ``O(T * E * C * M)`` contraction.
    """
    x = Tensor._lift(x)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"indices must be integers, got {idx.dtype}")
    if x.ndim == 0:
        raise ValueError("cannot gather from a 0-d tensor")
    axis = axis % x.ndim
    if _inference_mode and axis == 0:
        data = np.take(
            x.data, idx, axis=0,
            out=_arena_out(idx.shape + x.data.shape[1:]),
        )
    else:
        data = np.take(x.data, idx, axis=axis)

    def backward(g):
        # Scatter along ``axis`` as rows: bring the index dimensions of
        # ``g`` to the front and flatten them (C order, as np.add.at).
        grad = np.zeros_like(x.data)
        g = np.moveaxis(g, range(axis, axis + idx.ndim), range(idx.ndim))
        add_rows_at(
            np.moveaxis(grad, axis, 0),
            idx.reshape(-1),
            g.reshape((idx.size,) + g.shape[idx.ndim:]),
        )
        return ((x, grad),)

    return x._make(data, (x,), backward)


def add_rows_at(out: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """``out[idx] += values`` for a 1-d row index that may repeat.

    The exact, vectorized replacement for ``np.add.at(out, idx,
    values)``, which cannot vectorize (any element might collide with
    any other) and so dominated the non-GEMM cost of every row
    scatter: gather and embedding backwards, the MoE combine.  The
    input is split into *occurrence rounds*: element n's round is how
    many earlier elements target the same row.  Within a round rows
    are unique by construction, so each round is one fancy-index
    ``+=``; applying the rounds in order adds every row's
    contributions in input order, exactly as ``np.add.at`` does, so
    the result is bit-identical on any ``out`` and for any duplicate
    depth.  A round costs one small fancy-index call, so depth (the
    deepest repeat) bounds the Python-level work.
    """
    n = idx.shape[0]
    if n == 0:
        return
    if idx.min() < 0:
        idx = np.where(idx < 0, idx + out.shape[0], idx)
    counts = np.bincount(idx, minlength=out.shape[0])
    if counts.max() == 1:
        out[idx] += values
        return
    # Occurrence number: rank within the row's stable-sorted group.
    order = np.argsort(idx, kind="stable")
    starts = np.cumsum(counts) - counts
    occ = np.empty(n, dtype=np.intp)
    occ[order] = np.arange(n) - starts[idx[order]]
    # Rounds: a second stable sort keeps input order inside each round.
    rounds = np.argsort(occ, kind="stable")
    lo = 0
    for hi in np.cumsum(np.bincount(occ)).tolist():
        sel = rounds[lo:hi]
        out[idx[sel]] += values[sel]
        lo = hi


def scatter_add(
    values: Tensor,
    indices: np.ndarray,
    num_rows: int,
    unique_indices: bool = False,
) -> Tensor:
    """Differentiable scatter-add of rows into a zero tensor.

    ``out[indices[n]] += values[n]`` for every leading-position ``n``;
    the result has shape ``(num_rows,) + values.shape[1:]``.  Rows of
    the output not named by any index stay zero (capacity padding in
    the MoE dispatch).  The backward pass is a gather of the output
    gradient at the same indices — the exact adjoint.

    ``unique_indices`` is a caller promise that no index repeats, in
    which case the accumulating :func:`add_rows_at` is replaced by a
    plain fancy-index store.  MoE dispatch destinations
    (``expert * capacity + slot``) hold at most one token each, so the
    hot path qualifies.  The promise is trusted, not checked: with
    duplicate indices the fast path keeps only the last write.
    """
    values = Tensor._lift(values)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"indices must be integers, got {idx.dtype}")
    if idx.ndim != 1 or values.ndim < 1 or idx.shape[0] != values.shape[0]:
        raise ValueError(
            f"indices {idx.shape} must be 1-d and match the leading "
            f"dimension of values {values.shape}"
        )
    if num_rows < 0:
        raise ValueError(f"num_rows must be >= 0, got {num_rows}")
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise IndexError(
            f"indices out of range for {num_rows} rows: "
            f"[{idx.min()}, {idx.max()}]"
        )
    out = scratch_zeros((num_rows,) + values.shape[1:], np.float32)
    if unique_indices:
        out[idx] = values.data
    else:
        add_rows_at(out, idx, values.data)

    def backward(g):
        return ((values, g[idx]),)

    return values._make(out, (values,), backward)


#: Largest per-segment LHS block (rows * K elements) that still gains
#: from the stacked-GEMM bucket path: beyond ~16 KB of float32 the
#: fancy-index gather costs more than the per-call overhead it saves
#: (measured on the bench shapes; 2-d BLAS on a contiguous slice wins).
_BUCKET_ROW_ELEMS = 4096


def _fold_rows(rows: np.ndarray, axis: int) -> np.ndarray:
    """Sum ``rows`` along ``axis`` as one sequential fold from +0.0.

    ``((0 + r[0]) + r[1]) + ...`` in row order — exactly what a row
    scatter-add of each row into a zero buffer computes.  numpy folds
    a reduced axis row by row only while it is not the innermost one
    in memory; along contiguous memory (a single output column, or a
    non-row-major ``rows``) it would switch to pairwise summation.
    ``accumulate`` is sequential in any layout, and its last prefix
    plus +0.0 equals the fold from +0.0 (they differ only on an
    all-``-0.0`` column, whose sum the final ``+ 0`` turns to +0.0).
    """
    if rows.shape[-1] > 1:
        return np.add.reduce(np.ascontiguousarray(rows), axis=axis, initial=0)
    last = np.add.accumulate(rows, axis=axis).take(-1, axis=axis)
    return last + np.float32(0)


def segment_matmul(
    x: Tensor,
    weight: Tensor,
    segment_counts: np.ndarray,
    bucketed: bool = True,
    bias: Optional[Tensor] = None,
) -> Tensor:
    """Differentiable per-segment matmul against a stacked weight bank.

    ``x`` is ``(N, K)`` whose rows are grouped into E contiguous
    segments (``segment_counts[e]`` rows each, summing to N) and
    ``weight`` a stacked ``(E, K, J)`` bank; segment e's rows multiply
    ``weight[e]`` and, when the optional ``(E, J)`` ``bias`` is given,
    add ``bias[e]``:

    ``out[start_e : start_e + counts[e]] = x[same] @ weight[e] + bias[e]``

    This is the capacity-free MoE expert step: routed token rows
    sorted by expert flow through each expert's weight without ever
    materializing the (E, C, M) capacity buffer.  The forward loops
    over *occupied* segments only (``counts[e] == 0`` costs nothing —
    an expert that received no tokens is simply skipped, where the
    capacity formulation would still carry its C padding slots), and
    each segment GEMM is bit-identical to the per-expert reference
    ``x_seg @ weight[e]``.

    The bias is the GEMM's epilogue: each segment's (or stacked
    bucket's) product gets ``bias[e]`` added in place right after it
    is computed — the same single float32 add per element as adding a
    per-row gathered ``bias[expert_of_row]`` tensor, without that
    ``(N, J)`` temporary, its add node or its row-scatter backward.

    The backward accumulates per-segment gradients into the stacked
    bank with the exact adjoints of each slice —

    * ``grad_x[seg_e] = g[seg_e] @ weight[e]^T``
    * ``grad_w[e]     = x[seg_e]^T @ g[seg_e]``  (zero for empty
      segments)
    * ``grad_b[e]     = sum of g[seg_e]`` as one sequential fold in row
      order from +0.0 (zero for empty segments) — bit for bit what a
      gather's scatter-add backward accumulates for the repeated
      index ``e``

    — so one tape node covers the whole bank, over ragged row groups
    instead of a fixed capacity dimension.

    With ``bucketed=True`` (the default), occupied *small* segments of
    equal length are batched into one stacked ``np.matmul`` per size
    bucket — forward and backward — so balanced large-E routing (many
    small equal segments, the worst case for per-segment Python
    dispatch) pays one GEMM call per distinct size instead of one per
    expert.  Batched ``np.matmul`` computes each slice exactly as the
    corresponding 2-d product (numpy dispatches the same GEMM kernel
    per batch slice), so results are bit-identical to the unbucketed loop, which ``bucketed=False``
    keeps selectable as the parity reference.  Bucketing only pays
    when the per-call dispatch overhead it removes exceeds the row
    gather it adds, i.e. for segments whose LHS block is small —
    segments above the ``_BUCKET_ROW_ELEMS`` threshold and singleton
    buckets, which have
    nothing to batch, stay on the plain per-segment GEMM, where 2-d
    BLAS on a contiguous slice is already optimal.
    """
    x = Tensor._lift(x)
    weight = Tensor._lift(weight)
    counts = np.asarray(segment_counts)
    if not np.issubdtype(counts.dtype, np.integer):
        raise TypeError(f"segment_counts must be integers, got {counts.dtype}")
    if x.ndim != 2 or weight.ndim != 3:
        raise ValueError(
            f"segment_matmul expects (N, K) x and (E, K, J) weight, "
            f"got {x.shape} and {weight.shape}"
        )
    if counts.ndim != 1 or counts.shape[0] != weight.shape[0]:
        raise ValueError(
            f"segment_counts {counts.shape} must be ({weight.shape[0]},)"
        )
    if counts.size and counts.min() < 0:
        raise ValueError("segment_counts must be >= 0")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"inner dimensions differ: {x.shape} @ {weight.shape}"
        )
    if int(counts.sum()) != x.shape[0]:
        raise ValueError(
            f"segment_counts sum {int(counts.sum())} != rows {x.shape[0]}"
        )
    operands = (x, weight)
    if bias is not None:
        bias = Tensor._lift(bias)
        expected = (weight.shape[0], weight.shape[2])
        if bias.shape != expected:
            raise ValueError(
                f"bias must be {expected} (E, J), got {bias.shape}"
            )
        operands = (x, weight, bias)
    offsets = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
    occupied = np.nonzero(counts)[0]

    # Size buckets: small segments of equal length run as one stacked
    # GEMM.  ``batched`` holds (experts, (B, L) row indices) per
    # multi-member bucket; ``singles`` keeps the rest on the plain
    # per-segment path.
    batched = []
    singles = occupied
    if bucketed and occupied.size:
        by_size = {}
        for e in occupied:
            by_size.setdefault(int(counts[e]), []).append(int(e))
        singles = []
        for length, experts in sorted(by_size.items()):
            if len(experts) == 1 or length * x.shape[1] > _BUCKET_ROW_ELEMS:
                singles.extend(experts)
                continue
            experts = np.asarray(experts)
            rows = offsets[experts][:, None] + np.arange(length)
            batched.append((experts, rows))
        singles = np.asarray(sorted(singles), dtype=np.int64)

    data = scratch_empty((x.shape[0], weight.shape[2]), np.float32)
    for experts, rows in batched:
        stacked = np.matmul(x.data[rows], weight.data[experts])
        if bias is not None:
            stacked += bias.data[experts][:, None, :]
        data[rows] = stacked
    for e in singles:
        lo, hi = offsets[e], offsets[e + 1]
        np.matmul(x.data[lo:hi], weight.data[e], out=data[lo:hi])
        if bias is not None:
            data[lo:hi] += bias.data[e]

    def backward(g):
        grad_x = np.empty_like(x.data)
        # Occupied segments are written in full below; only the empty
        # ones need their zero gradient.
        grad_w = np.empty_like(weight.data)
        grad_w[counts == 0] = 0.0
        if bias is not None:
            grad_b = np.empty_like(bias.data)
            grad_b[counts == 0] = 0.0
        for experts, rows in batched:
            g_b = g[rows]
            grad_x[rows] = np.matmul(
                g_b, np.swapaxes(weight.data[experts], -1, -2)
            )
            grad_w[experts] = np.matmul(
                np.swapaxes(x.data[rows], -1, -2), g_b
            )
            if bias is not None:
                grad_b[experts] = _fold_rows(g_b, axis=1)
        for e in singles:
            lo, hi = offsets[e], offsets[e + 1]
            np.matmul(g[lo:hi], weight.data[e].T, out=grad_x[lo:hi])
            np.matmul(x.data[lo:hi].T, g[lo:hi], out=grad_w[e])
            if bias is not None:
                grad_b[e] = _fold_rows(g[lo:hi], axis=0)
        if bias is None:
            return ((x, grad_x), (weight, grad_w))
        return ((x, grad_x), (weight, grad_w), (bias, grad_b))

    if Tensor._needs_grad(*operands):
        return Tensor(data, _parents=operands, _backward=backward)
    return Tensor(data)


def einsum(subscripts: str, *tensors: Tensor) -> Tensor:
    """Differentiable einsum for explicit (``->``) subscripts.

    This is the workhorse of the MoE dispatch/combine path (GShard
    formulates both as einsums); gradients are computed by rewriting
    the einsum with the output and the other operands swapped.
    """
    tensors = [Tensor._lift(t) for t in tensors]
    if "->" not in subscripts:
        raise ValueError("einsum requires explicit '->' output subscripts")
    inputs, output = subscripts.split("->")
    terms = inputs.split(",")
    if len(terms) != len(tensors):
        raise ValueError(
            f"einsum got {len(tensors)} operands for {len(terms)} terms"
        )
    data = np.einsum(subscripts, *[t.data for t in tensors])

    def backward(g):
        grads = []
        for i, tensor in enumerate(tensors):
            other_terms = [terms[j] for j in range(len(terms)) if j != i]
            other_data = [tensors[j].data for j in range(len(terms)) if j != i]
            sub = ",".join([output] + other_terms) + "->" + terms[i]
            # Dimensions of terms[i] absent from output and the other
            # operands (summed-out free dims) need broadcasting; they
            # cannot appear for our use cases, so einsum suffices.
            grad = np.einsum(sub, g, *other_data)
            grads.append((tensor, grad))
        return tuple(grads)

    if Tensor._needs_grad(*tensors):
        return Tensor(data, _parents=tuple(tensors), _backward=backward)
    return Tensor(data)
