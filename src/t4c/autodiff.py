"""Reverse-mode automatic differentiation on dense float64 numpy arrays.

The engine is deliberately small. A :class:`Tensor` wraps a numpy array;
every operation on a Tensor records the op and its operands in the
Tensor it returns. A :class:`Plan` turns such a recorded graph into a
flat op sequence once: one slot per value, the forward in topological
order, the backward in its reverse, and for each op the slots its
gradients go to. ``Tensor.backward()`` builds a plan and runs its
backward once, into the ``grad`` of each leaf that requires one.
Training traces one record's forward and loss into a plan
(:meth:`Plan.trace`) and replays it for every record: each replay binds
the record's input arrays to the plan's input slots and runs the same
numpy expressions in the same order, with no Tensor built and no graph
walked. Everything runs in 64-bit precision so that finite-difference
checks stay sharp.

Plain float64 arrays are constants. The graph ops (all but the losses,
weighted_sum included) called with no Tensor operand return the plain
value their Tensor path would hold in ``.data`` and record nothing, so
inference runs the same code without a graph. ``linear`` and
``gnn_round`` take a leading member axis (a stack of models, member k at
index k) wherever no gradient flows: on plain arrays, and on Tensors of
which none requires a gradient. A plan traced through such ops has
nothing to differentiate, and is immutable: it holds its constants and no
value of the trace, and each replay runs on a fresh copy of its slots,
dropping each op output after its last reader. Serving an ensemble
traces its member-stacked forward once and replays it per record.

Only the operations the segment model actually needs are provided. Its
blocks are fused ops with a hand-written backward that keeps the bits of
the small ops they replace: ``linear`` (``x @ w + b``, then a ReLU or an
identity ``skip``), ``gnn_round`` (one message-passing round),
``embed_concat`` (embedding rows and further blocks side by side) and
``weighted_sum`` (a weighted loss). The ReLU is ``np.maximum(z, 0.0)``
in place on the op's own output: a ``-0.0`` pre-activation gives
``+0.0``, and a NaN propagates instead of being zeroed, so a diverging
layer shows up in the loss; the backward masks with ``out > 0``. Beside
them sit concat, a row gather, reshape, the two masked losses (weighted
cross entropy and mean squared error), a plain-array softmax for
inference, and Adam over a parameter store.

The softmaxes and the cross entropy reduce their 3-wide class axis
with ``fold_classes``: one ufunc call per column, with the bits of
numpy's far slower per-row reduction.

The store is built once, from a name -> array mapping: every parameter
is a view into one flat float64 buffer, and its gradient (``.grad``) its
view into a second flat buffer of the same layout, written in place;
Adam's moments are two more, and two scratch rows hold its intermediates.
The views stay fixed for the store's life, so a plan traced on the store
keeps reading its weights and adding into its gradients. ``zero_grad`` is
one fill of the gradient buffer, a backward adds into it, and
``adam_step`` updates all parameters from it in a handful of in-place
vector operations, with the same bits as a per-parameter update.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter, mul as _times
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Plan",
    "linear",
    "gnn_round",
    "concat",
    "embedding_cells",
    "embed_concat",
    "weighted_sum",
    "softmax_np",
    "getitem",
    "reshape",
    "weighted_cross_entropy",
    "mse",
    "ParamStore",
    "adam_step",
    "glorot_uniform",
    "embedding_normal",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible; the message names both shapes."""


_F64 = np.dtype(np.float64)


def _refuse_dtype(op: str, **operands) -> None:  # a TypeError naming op's first operand that is not float64
    name, dtype = next((name, v.dtype) for name, v in operands.items() if v is not None and v.dtype is not _F64)
    raise TypeError(f"{op}: operand {name} is {dtype}, expected float64")


class _Op(NamedTuple):
    """One op kind: a forward and a backward over plain operand values.

    ``forward(*operands)`` returns the output and a context for the backward.
    ``backward(g, out, ctx, need, *operands)`` returns one gradient per
    operand: None where ``need`` is false, or where the op passes no
    gradient back (a loss with every row masked).
    """

    name: str
    forward: Callable
    backward: Callable


class Tensor:
    """A dense array with an optional gradient buffer.

    A Tensor returned by an op remembers the op and its operands. Calling
    :meth:`backward` on a scalar fills ``grad`` on every reachable leaf
    that requires it. Leaf tensors default to ``requires_grad=False`` and
    act as constants. ``dtype=None`` keeps the array's own dtype (a plan's
    integer or boolean inputs); otherwise the data is cast to float64.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float64):
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: tuple[_Op, tuple, object] | None = None  # (op, operands, ctx) of an op's output

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Backpropagate from a scalar: each leaf that requires a gradient adds its gradient into its ``grad``
        (a new zero buffer when it is None). An op's output gets none."""
        if self.data.size != 1:
            raise ValueError(f"backward() expects a scalar, got shape {self.data.shape}")
        Plan([self]).backward()


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _value(x):
    return x.data if isinstance(x, Tensor) else x


def _requires_grad(*operands) -> bool:
    return any(isinstance(x, Tensor) and x.requires_grad for x in operands)


def _record(op: _Op, out, ctx, operands: tuple) -> Tensor:
    """The Tensor an op returns when one of its operands is a Tensor."""
    t = Tensor(out, dtype=None)
    t.requires_grad = _requires_grad(*operands)
    t._node = (op, operands, ctx)
    return t


# -- op kinds: forward and backward over plain values ---------------------------


def _linear_forward(x, w, b, relu, skip):
    out = x @ w
    out += b
    if relu:
        np.maximum(out, 0.0, out=out)
    elif skip is not None:
        out += skip
    return out, None


def _linear_backward(g, out, ctx, need, x, w, b, relu, skip):
    if relu:
        g = g * (out > 0.0)  # the output is positive exactly where its pre-activation is
    return (g @ w.T if need[0] else None, x.T @ g if need[1] else None,
            g.sum(axis=0) if need[2] else None, None, g)


def _gnn_round_forward(h, operator, w_self, w_nbr, b):
    nbr = operator @ h
    out = h @ w_self
    out += nbr @ w_nbr
    out += b
    np.maximum(out, 0.0, out=out)
    return out, nbr


def _gnn_round_backward(g, out, nbr, need, h, operator, w_self, w_nbr, b):
    g = g * (out > 0.0)
    return (g @ w_self.T + operator.T @ (g @ w_nbr.T) if need[0] else None, None,
            h.T @ g if need[2] else None, nbr.T @ g if need[3] else None,
            g.sum(axis=0) if need[4] else None)


def _concat_backward(g, out, ctx, need, axis, *parts):
    grads, lo = [None], 0
    for part, wanted in zip(parts, need[1:]):
        hi = lo + np.shape(part)[axis]
        if wanted:
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            grads.append(g[tuple(index)])
        else:
            grads.append(None)
        lo = hi
    return grads


def _embed_concat_backward(g, out, ctx, need, cells, count, *parts):
    """One ``np.bincount`` over all the tables' cells, cut into the tables: per cell the additions
    from 0.0 in row order of one bincount per table. Each block gets its columns of ``g``."""
    ends = [*accumulate((table.size for table in parts[:count]), initial=0)]
    cols = [*accumulate((block.shape[1] for block in parts[count:]), initial=cells.shape[1])]
    if any(need[2 : 2 + count]):
        flat = np.bincount(cells.ravel(), weights=g[:, : cells.shape[1]].ravel(), minlength=ends[-1])
    tables = (flat[lo:hi].reshape(t.shape) if n else None for t, lo, hi, n in zip(parts, ends, ends[1:], need[2:]))
    return (None, None, *tables, *(g[:, lo:hi] if n else None for lo, hi, n in zip(cols, cols[1:], need[2 + count :])))


def _scatter_backward(g, out, ctx, need, a, index):
    """Row gather backward (getitem): one ``np.bincount`` adds each row of ``g`` back at its index, every entry
    summing its rows from 0.0 in index order, as ``np.add.at`` does."""
    if not need[0]:
        return None, None
    width = a.size // a.shape[0]
    cells = (index[:, None] * width + np.arange(width)).ravel()
    return np.bincount(cells, weights=g.ravel(), minlength=a.size).reshape(a.shape), None


def _wce_forward(logits, labels, weights):
    mask = labels >= 0
    n = int(mask.sum())
    if n == 0:
        return np.float64(0.0), (0,)
    rows = np.where(mask)[0]
    row_labels = labels[rows]
    z = logits - fold_classes(np.maximum, logits)
    exp_z = np.exp(z)
    exp_sum = fold_classes(np.add, exp_z)
    nll = np.log(exp_sum[rows, 0]) - z[rows, row_labels]
    row_w = weights[row_labels]
    return np.float64((row_w * nll).sum() / n), (n, rows, row_labels, exp_z, exp_sum, row_w)


def _wce_backward(g, out, ctx, need, logits, labels, weights):
    n = ctx[0]
    if n == 0 or not need[0]:
        return None, None, None
    _, rows, row_labels, exp_z, exp_sum, row_w = ctx
    # softmax_np of the unmasked rows, taken from the forward's exponentials
    probs = exp_z[rows] / exp_sum[rows]
    grad = probs * row_w[:, None]
    grad[np.arange(len(rows)), row_labels] -= row_w
    buf = np.zeros(logits.shape)
    buf[rows] = grad * (float(g) / n)
    return buf, None, None


def _mse_forward(pred, target, mask):
    n = int(mask.sum())
    if n == 0:
        return np.float64(0.0), (0,)
    diff = np.where(mask, pred - target, 0.0)
    return np.float64((diff * diff).sum() / n), (n, diff)


def _mse_backward(g, out, ctx, need, pred, target, mask):
    n = ctx[0]
    if n == 0 or not need[0]:
        return None, None, None
    return 2.0 * ctx[1] * (float(g) / n), None, None


_LINEAR = _Op("linear", _linear_forward, _linear_backward)
_GNN_ROUND = _Op("gnn_round", _gnn_round_forward, _gnn_round_backward)
_CONCAT = _Op("concat", lambda axis, *parts: (np.concatenate(parts, axis=axis), None), _concat_backward)
_EMBED_CONCAT = _Op("embed_concat", lambda cells, count, *parts: (np.concatenate(
    [np.concatenate([t.ravel() for t in parts[:count]])[cells], *parts[count:]], axis=1), None), _embed_concat_backward)
_WEIGHTED_SUM = _Op("weighted_sum",  # sum() from the first product adds the others left to right
    lambda weights, *terms: (sum(map(_times, terms[1:], weights[1:]), terms[0] * weights[0]), None),
    lambda g, out, ctx, need, weights, *terms: (None, *(g * w for w in weights)))
_GETITEM = _Op("getitem", lambda a, rows: (a[rows], None), _scatter_backward)
_RESHAPE = _Op(
    "reshape", lambda a, shape: (a.reshape(shape), None),
    lambda g, out, ctx, need, a, shape: (g.reshape(np.shape(a)), None),
)
_WCE = _Op("weighted_cross_entropy", _wce_forward, _wce_backward)
_MSE = _Op("mse", _mse_forward, _mse_backward)


def _apply(op: _Op, operands: tuple, values: Sequence | None = None):
    """Run ``op`` on the operands' values; record it when an operand is a Tensor."""
    out, ctx = op.forward(*(values if values is not None else [_value(x) for x in operands]))
    return _record(op, out, ctx, operands) if Tensor in map(type, operands) else out


# -- the ops --------------------------------------------------------------------


def linear(x, w, b, relu: bool = False, skip=None) -> Tensor | np.ndarray:
    """One dense layer as one op: ``x @ w + b``, then the ReLU when ``relu``, or ``+ skip`` when given.

    x is (N, F), w (F, H), b (H,), skip (N, H). Value and gradients are those of a matmul, a bias add and
    a relu, then ``skip + ...`` passing ``skip`` the incoming gradient; a skip after a ReLU is refused. The
    ReLU runs in place on the output, maps a ``-0.0`` pre-activation to ``+0.0`` and lets a NaN through.
    Operands of which none requires a gradient may be a stack of M members, member k at index k: x (M, N, F),
    w (M, F, H), b (M, 1, H), skip (M, N, H). Each member's rows get the bits of its own call, as matmul runs one
    product per member.
    Every operand is float64; a TypeError names the first that is not.
    """
    xd, wd, bd, sd = _value(x), _value(w), _value(b), _value(skip)
    if relu and skip is not None:
        raise ValueError("linear: skip= with relu=True is not supported")
    m = xd.shape[:1] if xd.ndim == 3 and not _requires_grad(x, w, b, skip) else ()  # a member stack
    width = wd.shape[-1:]
    if (xd.ndim != 2 + len(m) or wd.shape[:-1] != (*m, xd.shape[-1]) or bd.shape != ((*m, 1, *width) if m else width)
            or skip is not None and np.shape(sd) != (*xd.shape[:-1], *width)):
        skip_shape = "" if skip is None else f", skip {np.shape(sd)}"
        raise ShapeError(f"linear: incompatible shapes x {xd.shape}, w {wd.shape}, b {bd.shape}{skip_shape}")
    if not xd.dtype is wd.dtype is bd.dtype is _F64 or skip is not None and sd.dtype is not _F64:
        _refuse_dtype("linear", x=xd, w=wd, b=bd, skip=sd)
    return _apply(_LINEAR, (x, w, b, relu, skip), (xd, wd, bd, relu, sd))


def gnn_round(h, operator: np.ndarray, w_self, w_nbr, b) -> Tensor | np.ndarray:
    """One message-passing round as one op: ``relu(h @ w_self + (operator @ h) @ w_nbr + b)``.

    ``operator`` is a constant (N, N) array, such as a graph's mean-aggregation
    matrix. ``h`` gets its self and neighbour gradients summed, in that order.
    The ReLU is that of :func:`linear`, NaN propagation included, and so are the float64 check and the member stack
    of operands that require no gradient: h (M, N, H), w_self and w_nbr (M, H, H'), b (M, 1, H'), one ``operator``
    for every member.
    """
    hd, sd, nd, bd = _value(h), _value(w_self), _value(w_nbr), _value(b)
    m = hd.shape[:1] if hd.ndim == 3 and not _requires_grad(h, w_self, w_nbr, b) else ()  # a member stack
    width = sd.shape[-1:]
    if (hd.ndim != 2 + len(m) or operator.shape != (hd.shape[-2],) * 2 or sd.shape[:-1] != (*m, hd.shape[-1])
            or nd.shape != sd.shape or bd.shape != ((*m, 1, *width) if m else width)):
        raise ShapeError(f"gnn_round: incompatible shapes h {hd.shape}, operator {operator.shape}, "
                         f"w_self {sd.shape}, w_nbr {nd.shape}, b {bd.shape}")
    if not hd.dtype is operator.dtype is sd.dtype is nd.dtype is bd.dtype is _F64:
        _refuse_dtype("gnn_round", h=hd, operator=operator, w_self=sd, w_nbr=nd, b=bd)
    return _apply(_GNN_ROUND, (h, operator, w_self, w_nbr, b), (hd, operator, sd, nd, bd))


def concat(tensors: Sequence, axis: int = 1) -> Tensor | np.ndarray:
    """Concatenate along ``axis``; all other dimensions must agree."""
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    try:
        return _apply(_CONCAT, (axis, *tensors))
    except ValueError:
        shapes = [np.shape(_value(t)) for t in tensors]
        raise ShapeError(f"concat: incompatible shapes {shapes} along axis {axis}") from None


def embedding_cells(shapes: Sequence[tuple[int, int]], index: np.ndarray) -> np.ndarray:
    """The (N, sum D_t) index :func:`embed_concat` gathers through: for row i, the entries of row
    ``index[i, t]`` of each (V_t, D_t) table ``shapes[t]`` within the tables' flattened concatenation.
    A row outside its table raises IndexError naming the range and the table size."""
    index, columns, offset = np.asarray(index, dtype=np.int64), [], 0
    if index.ndim != 2 or index.shape[1] != len(shapes):
        raise ShapeError(f"embedding_cells: index {index.shape} for {len(shapes)} tables")
    for idx, (vocab, width) in zip(index.T, shapes):
        if idx.size and (idx.min() < 0 or idx.max() >= vocab):
            raise IndexError(f"embedding index out of range: values in [{idx.min()}, {idx.max()}] for table of size {vocab}")
        columns.append(offset + idx[:, None] * width + np.arange(width))
        offset += vocab * width
    return np.concatenate(columns, axis=1)


def embed_concat(tables: Sequence, cells, blocks: Sequence = ()) -> Tensor | np.ndarray:
    """The rows of ``tables`` at their ``embedding_cells`` index, then the (N, F_k) ``blocks``, side by side:
    one op with the value and gradients of a row gather per table and a ``concat``."""
    shapes, block_shapes = [np.shape(_value(t)) for t in tables], [np.shape(_value(b)) for b in blocks]
    cd = _value(cells)
    if cd.ndim != 2 or cd.shape[1] != sum(s[1] for s in shapes) or any(s[0] != len(cd) for s in block_shapes):
        raise ShapeError(f"embed_concat: incompatible shapes tables {shapes}, cells {cd.shape}, blocks {block_shapes}")
    return _apply(_EMBED_CONCAT, (cells, len(tables), *tables, *blocks))


def weighted_sum(terms: Sequence, weights: Sequence[float]) -> Tensor | np.ndarray:
    """``terms[0] * weights[0] + terms[1] * weights[1] + ...`` of scalar terms, summed left to right,
    as one op with the value and gradients of a product per term and a chain of sums."""
    if len(terms) != len(weights) or any(np.shape(_value(t)) != () for t in terms) or not terms:
        raise ShapeError(f"weighted_sum: terms of shapes {[np.shape(_value(t)) for t in terms]} for {len(weights)} weights")
    return _apply(_WEIGHTED_SUM, (tuple(map(float, weights)), *terms))


def fold_classes(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1, keepdims=True)`` with its bits, one column at a time.

    For ``np.add`` and ``np.maximum``, ±0 included. Numpy reduces an axis of
    2 to 7 values left to right, so a chain of ``ufunc`` calls over the
    columns gives its bits with a few calls on whole columns; any other width
    goes to numpy, which sums 8 or more values pairwise. A NaN stays a NaN,
    but of a NaN with its sign bit set (x86's ``inf - inf``) the two may
    return different signs.
    """
    width = x.shape[-1]
    if not 2 <= width < 8:
        return ufunc.reduce(x, axis=-1, keepdims=True)
    out = ufunc(x[..., 0:1], x[..., 1:2])
    for col in range(2, width):
        ufunc(out, x[..., col : col + 1], out=out)
    return out


def softmax_np(x: np.ndarray) -> np.ndarray:
    """Softmax of a plain array along its last axis, stabilized by max subtraction."""
    e = np.exp(x - fold_classes(np.maximum, x))
    e /= fold_classes(np.add, e)
    return e


def getitem(a, rows: np.ndarray) -> Tensor | np.ndarray:
    """The rows of ``a`` at ``rows``, a 1-D array of non-negative integers; any other key raises IndexError."""
    if not (isinstance(rows, np.ndarray) and rows.ndim == 1 and rows.dtype.kind == "i" and rows.min(initial=0) >= 0):
        raise IndexError(f"getitem: takes a 1-D array of non-negative integer rows, not {rows!r}")
    return _apply(_GETITEM, (a, rows))


def reshape(a, shape) -> Tensor | np.ndarray:
    try:
        return _apply(_RESHAPE, (a, shape))
    except ValueError:
        raise ShapeError(f"reshape: cannot view {np.shape(_value(a))} as {shape}") from None


def weighted_cross_entropy(logits, labels, class_weights) -> tuple[Tensor, int]:
    """Class-weighted cross entropy averaged over unmasked rows.

    ``labels`` holds one class index per row; any negative entry masks the
    row out of both the value and the gradient. Returns the scalar loss
    and the number of rows that actually contributed; an all-masked input
    yields (0, 0).
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"weighted_cross_entropy: logits must be 2-D, got {logits.shape}")
    label_values = np.asarray(_value(labels), dtype=np.int64)
    weights = np.asarray(class_weights, dtype=np.float64)
    n_rows, n_classes = logits.data.shape
    if label_values.shape != (n_rows,):
        raise ShapeError(
            f"weighted_cross_entropy: labels {label_values.shape} vs logits {logits.shape}"
        )
    if weights.shape != (n_classes,):
        raise ShapeError(
            f"weighted_cross_entropy: class_weights {weights.shape} vs {n_classes} classes"
        )
    if np.any(weights <= 0.0):
        raise ValueError("weighted_cross_entropy: class weights must be positive")
    if label_values.max(initial=-1) >= n_classes:
        raise IndexError(f"label {label_values.max()} out of range for {n_classes} classes")
    operands = (logits, labels if isinstance(labels, Tensor) else label_values, weights)
    loss = _apply(_WCE, operands, (logits.data, label_values, weights))
    return loss, loss._node[2][0]  # the context starts with the row count


def mse(pred, target, mask=None) -> tuple[Tensor, int]:
    """Mean squared error over unmasked entries; (0, 0) when all masked."""
    pred = _as_tensor(pred)
    target_arr = np.asarray(_value(target), dtype=np.float64)
    if pred.data.shape != target_arr.shape:
        raise ShapeError(f"mse: pred {pred.shape} vs target {target_arr.shape}")
    if mask is None:
        mask_arr = np.ones(pred.data.shape, dtype=bool)
    else:
        mask_arr = np.asarray(_value(mask), dtype=bool)
        if mask_arr.shape != pred.data.shape:
            raise ShapeError(f"mse: mask {mask_arr.shape} vs pred {pred.shape}")
    operands = (pred, target if isinstance(target, Tensor) else target_arr,
                mask if isinstance(mask, Tensor) else mask_arr)
    loss = _apply(_MSE, operands, (pred.data, target_arr, mask_arr))
    return loss, loss._node[2][0]


# -- plans ------------------------------------------------------------------------


def _walk(outputs: Sequence[Tensor]) -> list[Tensor]:
    """The op outputs that ``outputs`` were computed from, each after its operands.

    A depth-first post-order from ``outputs[0]``: its reverse is the order in
    which the backward runs the ops, and so the order in which a value used
    by several ops sums their gradients. What only the other outputs reach
    comes after it.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(t, False) for t in reversed(outputs)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or node._node is None:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._node[1]:
            if isinstance(parent, Tensor) and parent._node is not None and id(parent) not in seen:
                stack.append((parent, False))
    return order


class Plan:
    """A recorded op sequence, replayed on new inputs.

    ``Plan(outputs, inputs)`` walks the graph that computed ``outputs`` once
    and gives every value a slot: each op output, leaf tensor and constant
    operand. The ops run forward in the walk's order and backward in its
    reverse. A leaf that requires a gradient adds its gradients into its
    ``grad`` buffer (a new zero buffer when it has none), so the gradients of
    a ParamStore's parameters land in its flat buffer; an op output's
    gradient lives only during one backward.

    Parameters and constants are read by reference, so each replay sees the
    parameters' current values. :meth:`forward` binds one array to each of
    ``inputs``, of the shape and dtype traced (its values are not checked),
    and returns the outputs' values; :meth:`backward` then backpropagates
    from the first output, a scalar.

    A plan with nothing to differentiate (no op output requires a gradient)
    is immutable: it keeps its constants and no trace-time value, context or
    gradient seed. Each :meth:`forward` runs on a fresh copy of its slots and
    drops each op output after its last reader, so replays may overlap and
    return arrays of their own; :meth:`backward` does nothing.
    """

    def __init__(self, outputs: Sequence[Tensor], inputs: Sequence[Tensor] = ()):
        values: list = []
        slots: dict[int, int] = {}

        def slot(x) -> int:
            if not isinstance(x, Tensor):  # a constant operand
                values.append(x)
                return len(values) - 1
            if id(x) not in slots:
                slots[id(x)] = len(values)
                values.append(x.data)
            return slots[id(x)]

        self._inputs = [(slot(x), x.shape, x.data.dtype) for x in inputs]
        order = _walk(outputs)
        self.ops = tuple(t._node[0].name for t in order)
        reads = [[slot(x) for x in t._node[1]] for t in order]
        self._forward = [(t._node[0].forward, _getter(args), slot(t)) for t, args in zip(order, reads)]
        self._backward = []
        for k in reversed(range(len(order))):
            t = order[k]
            if not t.requires_grad:
                continue
            op, operands, _ctx = t._node
            _fwd, args, out = self._forward[k]
            need = tuple(isinstance(x, Tensor) and x.requires_grad for x in operands)
            targets = tuple(
                (pos, slots[id(x)], _grad_buffer(x) if x._node is None else None)
                for pos, x in enumerate(operands) if need[pos]
            )
            self._backward.append((k, op.backward, args, out, need, targets))
        self._outputs = [slot(t) for t in outputs]
        if self._backward:
            self._values, self._ctx = values, [t._node[2] for t in order]
            self._seed = np.ones_like(values[self._outputs[0]])
            return
        # forward-only: the slots of the inputs and op outputs stay empty, and
        # each op output is dropped after the last op that reads it
        for t in (*inputs, *order):
            values[slots[id(t)]] = None
        self._values = tuple(values)
        last_reader = {i: k for k, args in enumerate(reads) for i in args}
        drops: list[list[int]] = [[] for _ in order]
        for _fwd, _args, out in self._forward:
            if out in last_reader and out not in self._outputs:
                drops[last_reader[out]].append(out)
        self._drops = tuple(map(tuple, drops))

    @classmethod
    def trace(cls, fn: Callable[..., Sequence[Tensor]], inputs: Sequence[np.ndarray]) -> Plan:
        """Run ``fn`` once on Tensors holding ``inputs`` and plan the outputs it returns (the loss first)."""
        tensors = [Tensor(x, dtype=None) for x in inputs]
        return cls(fn(*tensors), tensors)

    def forward(self, *inputs: np.ndarray) -> list:
        """Bind ``inputs`` and run every op; the outputs' values."""
        if len(inputs) != len(self._inputs):
            raise ValueError(f"plan takes {len(self._inputs)} inputs, got {len(inputs)}")
        values = self._values if self._backward else list(self._values)
        for (slot, shape, dtype), x in zip(self._inputs, inputs):
            if x.shape != shape or x.dtype != dtype:
                raise ShapeError(f"plan input {x.dtype}{x.shape} where {dtype}{shape} was traced")
            values[slot] = x
        if self._backward:  # the backward reads every value and context
            ctx = self._ctx
            for k, (fwd, args, out) in enumerate(self._forward):
                values[out], ctx[k] = fwd(*args(values))
        else:
            for (fwd, args, out), drops in zip(self._forward, self._drops):
                values[out] = fwd(*args(values))[0]
                for slot in drops:
                    values[slot] = None
        return [values[i] for i in self._outputs]

    def backward(self) -> None:
        """Backpropagate from the first output into the leaves' ``grad`` buffers."""
        if not self._backward:
            return
        values, ctx = self._values, self._ctx
        grads: list = [None] * len(values)
        grads[self._outputs[0]] = self._seed
        for k, bwd, args, out, need, targets in self._backward:
            g = grads[out]
            if g is None:
                continue
            op_grads = bwd(g, values[out], ctx[k], need, *args(values))
            for pos, slot, buffer in targets:
                g_in = op_grads[pos]
                if g_in is None:
                    continue
                if buffer is not None:
                    buffer += g_in
                elif grads[slot] is None:
                    grads[slot] = g_in
                else:
                    grads[slot] = grads[slot] + g_in


def _getter(slots: list[int]) -> Callable[[list], tuple]:
    """The operand values of an op, as a tuple, from the list of slot values."""
    return itemgetter(*slots) if len(slots) > 1 else lambda values: (values[slots[0]],)


def _grad_buffer(leaf: Tensor) -> np.ndarray:
    if leaf.grad is None:
        leaf.grad = np.zeros_like(leaf.data)
    return leaf.grad


class ParamStore:
    """Named trainable tensors, built once from a name -> array mapping.

    Each parameter's ``data`` is a fixed view of one flat float64 buffer, in
    the mapping's order, and its ``grad`` a fixed view of a second flat buffer
    of the same layout, which a backward adds into in place (write a gradient
    with ``p.grad[...] = g``; an array assigned to ``p.grad`` is not read).
    Adam's first and second moments are two more buffers, so one update covers
    every parameter at once. ``_work`` is two rows of that size for Adam's
    intermediates.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]):
        values = [np.asarray(a, dtype=np.float64) for a in arrays.values()]
        self._flat = np.concatenate([a.ravel() for a in values])
        self._grad = np.zeros_like(self._flat)
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._work = np.zeros((2, self._flat.size))
        self.step_count = 0
        self._params: dict[str, Tensor] = {}
        bounds = list(accumulate(a.size for a in values))[:-1]
        for name, a, data, grad in zip(arrays, values, np.split(self._flat, bounds), np.split(self._grad, bounds)):
            self._params[name] = t = Tensor(data.reshape(a.shape), requires_grad=True)
            t.grad = grad.reshape(a.shape)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        self._grad.fill(0.0)

    def scale_grads(self, factor: float) -> None:
        self._grad *= factor

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of the current parameter values, keyed by name."""
        return {name: t.data.copy() for name, t in self._params.items()}

    def arrays(self) -> dict[str, np.ndarray]:
        """The current parameter values by name, not copied: run as constants, they build no graph."""
        return {name: t.data for name, t in self._params.items()}


def adam_step(
    store: ParamStore,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update over the flat buffers, in place: the order
    and bits of ``p -= lr * m_hat / (sqrt(v_hat) + eps)`` with no temporaries."""
    store.step_count += 1
    t = store.step_count
    g = store._grad
    m, v = store._m, store._v
    a, b = store._work
    m *= beta1
    np.multiply(g, 1.0 - beta1, out=a)
    m += a
    v *= beta2
    np.multiply(g, g, out=a)
    a *= 1.0 - beta2
    v += a
    np.divide(m, 1.0 - beta1**t, out=a)  # m_hat
    a *= lr
    np.divide(v, 1.0 - beta2**t, out=b)  # v_hat
    np.sqrt(b, out=b)
    b += eps
    a /= b
    store._flat -= a


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def embedding_normal(rng: np.random.Generator, vocab: int, dim: int) -> np.ndarray:
    """Normal(0, 0.1) initializer for embedding tables."""
    return rng.normal(0.0, 0.1, size=(vocab, dim))
