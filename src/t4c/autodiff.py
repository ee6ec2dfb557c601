"""Reverse-mode automatic differentiation on dense float64 numpy arrays.

The engine is deliberately small. A :class:`Tensor` wraps a numpy array;
every operation records its input tensors together with a closure that
routes the upstream gradient back to them, and ``backward()`` walks the
recorded graph once in reverse topological order. Everything runs in
64-bit precision so that finite-difference checks stay sharp.

Plain float64 arrays are constants. The graph ops (all but reduce_sum
and the losses) called with no Tensor operand return the plain ndarray
their Tensor path would hold in ``.data`` and record nothing, so
inference runs the same code without a graph.

Only the operations the segment model actually needs are provided: the
fused ``linear`` (``x @ w + b``, optional ReLU) and ``gnn_round`` (one
message-passing round), each one recorded op with a hand-written
backward. Their ReLU is ``np.maximum(z, 0.0)`` applied in place to the
op's own output: a ``-0.0`` pre-activation gives ``+0.0``, and a NaN
pre-activation propagates as NaN instead of being zeroed, so a diverging
layer shows up in the loss. The backward takes its mask from the output
(``out > 0``), which is positive exactly where the pre-activation is.
Beside them sit add, mul, concat, embedding lookup, slicing, reshape, a sum
reduction, the two masked losses (weighted cross entropy and mean
squared error), a plain-array softmax for inference, and an Adam
optimizer over a named parameter store.

The store keeps every parameter as a view into one flat float64
buffer, and Adam's moments as two flat buffers of the same layout:
``adam_step`` gathers the gradients with one concatenate and updates
all parameters in a handful of vector operations, with the same bits
as a per-parameter update.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "add",
    "mul",
    "linear",
    "gnn_round",
    "concat",
    "embedding_lookup",
    "softmax_np",
    "getitem",
    "reshape",
    "reduce_sum",
    "weighted_cross_entropy",
    "mse",
    "ParamStore",
    "adam_step",
    "glorot_uniform",
    "embedding_normal",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible; the message names both shapes."""


class Tensor:
    """A dense float64 array with an optional gradient buffer.

    Tensors produced by operations remember their parents and how to push
    an upstream gradient back to them. Calling :meth:`backward` on a
    scalar fills ``grad`` on every reachable tensor that requires it.
    Leaf tensors default to ``requires_grad=False`` and act as constants.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # the bits of zeros + g in one pass, in a buffer of its own
            self.grad = g + 0.0
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar, accumulating into ``grad`` buffers."""
        if self.data.size != 1:
            raise ValueError(f"backward() expects a scalar, got shape {self.data.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                # leaves (parameters, constants) have no backward to run
                if parent._parents and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Sum the gradient down to the original operand shape.
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Tensor | np.ndarray:
    """Elementwise sum with numpy broadcasting (e.g. bias add)."""
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    x = a.data if ta else a
    y = b.data if tb else b
    try:
        data = x + y
    except ValueError:
        raise ShapeError(f"add: cannot broadcast shapes {np.shape(x)} and {np.shape(y)}") from None
    if not (ta or tb):
        return data
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _result(data, (a, b), backward)


def mul(a, b) -> Tensor | np.ndarray:
    """Elementwise product with numpy broadcasting; also scales by a scalar."""
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    x = a.data if ta else a
    y = b.data if tb else b
    try:
        data = x * y
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast shapes {np.shape(x)} and {np.shape(y)}") from None
    if not (ta or tb):
        return data
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _result(data, (a, b), backward)


def linear(x, w, b, relu: bool = False) -> Tensor | np.ndarray:
    """One dense layer as one op: ``x @ w + b``, then the ReLU when ``relu``.

    x is (N, F), w (F, H) and b (H,). Value and gradients are those of matmul, add and relu in turn.
    The ReLU runs in place on the layer's own output buffer; it maps a ``-0.0``
    pre-activation to ``+0.0`` and lets a NaN through (see the module docstring).
    """
    tx, tw, tb = isinstance(x, Tensor), isinstance(w, Tensor), isinstance(b, Tensor)
    xd, wd, bd = x.data if tx else x, w.data if tw else w, b.data if tb else b
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] or bd.shape != wd.shape[1:]:
        raise ShapeError(f"linear: incompatible shapes x {xd.shape}, w {wd.shape}, b {bd.shape}")
    data = xd @ wd
    data += bd
    if relu:
        np.maximum(data, 0.0, out=data)
    if not (tx or tw or tb):
        return data

    def backward(g: np.ndarray) -> None:
        if relu:
            g = g * (data > 0.0)  # the output is positive exactly where its pre-activation is
        if tx and x.requires_grad:
            x._accumulate(g @ wd.T)
        if tw and w.requires_grad:
            w._accumulate(xd.T @ g)
        if tb and b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return _result(data, tuple(t for t in (x, w, b) if isinstance(t, Tensor)), backward)


def gnn_round(h, operator: np.ndarray, w_self, w_nbr, b) -> Tensor | np.ndarray:
    """One message-passing round as one op: ``relu(h @ w_self + (operator @ h) @ w_nbr + b)``.

    ``operator`` is a constant (N, N) array, such as a graph's mean-aggregation
    matrix. ``h`` gets its self and neighbour gradients summed, in that order.
    The ReLU is that of :func:`linear`, NaN propagation included.
    """
    th, ts, tn, tb = isinstance(h, Tensor), isinstance(w_self, Tensor), isinstance(w_nbr, Tensor), isinstance(b, Tensor)
    hd, sd = h.data if th else h, w_self.data if ts else w_self
    nd, bd = w_nbr.data if tn else w_nbr, b.data if tb else b
    if (hd.ndim != 2 or operator.shape != (len(hd),) * 2 or sd.shape[:1] != hd.shape[1:]
            or nd.shape != sd.shape or bd.shape != sd.shape[1:]):
        raise ShapeError(f"gnn_round: incompatible shapes h {hd.shape}, operator {operator.shape}, "
                         f"w_self {sd.shape}, w_nbr {nd.shape}, b {bd.shape}")
    nbr = operator @ hd
    data = hd @ sd
    data += nbr @ nd
    data += bd
    np.maximum(data, 0.0, out=data)
    if not (th or ts or tn or tb):
        return data

    def backward(g: np.ndarray) -> None:
        g = g * (data > 0.0)
        if th and h.requires_grad:
            h._accumulate(g @ sd.T + operator.T @ (g @ nd.T))
        if ts and w_self.requires_grad:
            w_self._accumulate(hd.T @ g)
        if tn and w_nbr.requires_grad:
            w_nbr._accumulate(nbr.T @ g)
        if tb and b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return _result(data, tuple(t for t in (h, w_self, w_nbr, b) if isinstance(t, Tensor)), backward)


def concat(tensors: Sequence, axis: int = 1) -> Tensor | np.ndarray:
    """Concatenate along ``axis``; all other dimensions must agree."""
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    values = []
    any_tensor = False
    for t in tensors:
        if isinstance(t, Tensor):
            any_tensor = True
            values.append(t.data)
        else:
            values.append(t)
    try:
        data = np.concatenate(values, axis=axis)
    except ValueError:
        shapes = [np.shape(v) for v in values]
        raise ShapeError(f"concat: incompatible shapes {shapes} along axis {axis}") from None
    if not any_tensor:
        return data
    parts = tuple(_as_tensor(t) for t in tensors)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if part.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                part._accumulate(g[tuple(index)])

    return _result(data, parts, backward)


def embedding_lookup(table, indices) -> Tensor | np.ndarray:
    """Gather rows of ``table`` (V, D) at integer ``indices`` (N,)."""
    tt = isinstance(table, Tensor)
    x = table.data if tt else table
    idx = np.asarray(indices, dtype=np.int64)
    vocab = x.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        raise IndexError(
            f"embedding index out of range: values in [{idx.min()}, {idx.max()}] "
            f"for table of size {vocab}"
        )
    data = x[idx]
    if not tt:
        return data

    def backward(g: np.ndarray) -> None:
        if table.requires_grad:
            buf = np.zeros_like(table.data)
            np.add.at(buf, idx, g)
            table._accumulate(buf)

    return _result(data, (table,), backward)


def softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax of a plain array along ``axis``, stabilized by max subtraction."""
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def getitem(a, key) -> Tensor | np.ndarray:
    """Basic or integer-array indexing; gradient scatters back with add.at."""
    ta = isinstance(a, Tensor)
    x = a.data if ta else a
    data = np.array(x[key])
    if not ta:
        return data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            np.add.at(buf, key, g)
            a._accumulate(buf)

    return _result(data, (a,), backward)


def reshape(a, shape) -> Tensor | np.ndarray:
    ta = isinstance(a, Tensor)
    x = a.data if ta else a
    try:
        data = x.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}") from None
    if not ta:
        return data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return _result(data, (a,), backward)


def reduce_sum(a) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum()

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _result(data, (a,), backward)


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
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(class_weights, dtype=np.float64)
    n_rows, n_classes = logits.data.shape
    if labels.shape != (n_rows,):
        raise ShapeError(
            f"weighted_cross_entropy: labels {labels.shape} vs logits {logits.shape}"
        )
    if weights.shape != (n_classes,):
        raise ShapeError(
            f"weighted_cross_entropy: class_weights {weights.shape} vs {n_classes} classes"
        )
    if np.any(weights <= 0.0):
        raise ValueError("weighted_cross_entropy: class weights must be positive")
    if labels.max(initial=-1) >= n_classes:
        raise IndexError(f"label {labels.max()} out of range for {n_classes} classes")

    mask = labels >= 0
    n = int(mask.sum())
    if n == 0:
        return _result(np.float64(0.0), (logits,), lambda g: None), 0

    rows = np.where(mask)[0]
    row_labels = labels[rows]
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    exp_z = np.exp(z)
    exp_sum = exp_z.sum(axis=1)
    nll = np.log(exp_sum)[rows] - z[rows, row_labels]
    row_w = weights[row_labels]
    value = (row_w * nll).sum() / n

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            # softmax_np of the unmasked rows, taken from the forward's exponentials
            probs = exp_z[rows] / exp_sum[rows, None]
            grad = probs * row_w[:, None]
            grad[np.arange(len(rows)), row_labels] -= row_w
            buf = np.zeros_like(logits.data)
            buf[rows] = grad * (float(g) / n)
            logits._accumulate(buf)

    return _result(np.float64(value), (logits,), backward), n


def mse(pred, target, mask=None) -> tuple[Tensor, int]:
    """Mean squared error over unmasked entries; (0, 0) when all masked."""
    pred = _as_tensor(pred)
    target_arr = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target_arr.shape:
        raise ShapeError(f"mse: pred {pred.shape} vs target {target_arr.shape}")
    if mask is None:
        mask_arr = np.ones(pred.data.shape, dtype=bool)
    else:
        mask_arr = np.asarray(mask, dtype=bool)
        if mask_arr.shape != pred.data.shape:
            raise ShapeError(f"mse: mask {mask_arr.shape} vs pred {pred.shape}")
    n = int(mask_arr.sum())
    if n == 0:
        return _result(np.float64(0.0), (pred,), lambda g: None), 0

    diff = np.where(mask_arr, pred.data - target_arr, 0.0)
    value = (diff * diff).sum() / n

    def backward(g: np.ndarray) -> None:
        if pred.requires_grad:
            pred._accumulate(2.0 * diff * (float(g) / n))

    return _result(np.float64(value), (pred,), backward), n


class ParamStore:
    """Named trainable tensors, each a view into one flat float64 buffer.

    Adam's first and second moments are two more flat buffers with the
    same layout, so one update covers every parameter at once.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._flat = np.zeros(0)
        self._m = np.zeros(0)
        self._v = np.zeros(0)
        self.step_count = 0

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name!r}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        # grow the buffers and point every parameter at its slice of the new one
        size = t.data.size
        self._flat = np.concatenate([self._flat, t.data.ravel()])
        self._m = np.concatenate([self._m, np.zeros(size)])
        self._v = np.concatenate([self._v, np.zeros(size)])
        offset = 0
        for p in self._params.values():
            p.data = self._flat[offset : offset + p.data.size].reshape(p.data.shape)
            offset += p.data.size
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def scale_grads(self, factor: float) -> None:
        for t in self._params.values():
            if t.grad is not None:
                t.grad *= factor

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
    """One bias-corrected Adam update over the flat buffer; missing gradients count as zero."""
    store.step_count += 1
    t = store.step_count
    g = np.concatenate(
        [p.grad if p.grad is not None else np.zeros(p.data.size) for p in store._params.values()],
        axis=None,
    )
    if g.size != store._flat.size:
        raise ShapeError(f"adam_step: {g.size} gradient entries for {store._flat.size} parameter entries")
    m, v = store._m, store._v
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    store._flat -= lr * m_hat / (np.sqrt(v_hat) + eps)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def embedding_normal(rng: np.random.Generator, vocab: int, dim: int) -> np.ndarray:
    """Normal(0, 0.1) initializer for embedding tables."""
    return rng.normal(0.0, 0.1, size=(vocab, dim))
