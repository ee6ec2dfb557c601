"""Engine tests: forward definitions, gradients vs finite differences,
masking behavior, and the Adam update."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t4c import autodiff as ad
from t4c.autodiff import ParamStore, ShapeError, Tensor
from t4c.data import mean_aggregation_matrix
from t4c.model import ModelConfig, init_params

from conftest import central_diff_tensor, dot, max_rel_error

GRAD_TOL = 1e-6


def test_relu_values_and_subgradient_at_zero():
    x = Tensor([[-1.0, 0.0, 2.0]], requires_grad=True)
    out = ad.linear(x, np.eye(3), np.zeros(3), relu=True)
    assert out.data.tolist() == [[0.0, 0.0, 2.0]]
    dot(out, np.ones((1, 3))).backward()
    assert x.grad.tolist() == [[0.0, 0.0, 1.0]]


def test_matmul_shape_error_reports_both_shapes():
    with pytest.raises(ShapeError) as err:
        ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), np.zeros(2))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_fused_op_shape_errors_name_the_operands():
    with pytest.raises(ShapeError, match=r"b \(3,\)"):
        ad.linear(np.ones((2, 4)), np.ones((4, 2)), np.zeros(3))
    operator = mean_aggregation_matrix([(1,), (0,), ()])
    with pytest.raises(ShapeError, match=r"operator \(3, 3\)"):
        ad.gnn_round(np.ones((4, 2)), operator, np.ones((2, 2)), np.ones((2, 2)), np.zeros(2))
    with pytest.raises(ShapeError, match=r"w_nbr \(2, 3\)"):
        ad.gnn_round(np.ones((3, 2)), operator, np.ones((2, 2)), np.ones((2, 3)), np.zeros(2))
    tables, cells = [np.ones((3, 2)), np.ones((2, 1))], ad.embedding_cells([(3, 2), (2, 1)], np.zeros((4, 2), int))
    with pytest.raises(ShapeError, match=r"cells \(4, 2\)"):
        ad.embed_concat(tables, cells[:, :2])
    with pytest.raises(ShapeError, match=r"blocks \[\(4, 2\), \(3, 1\)\]"):
        ad.embed_concat(tables, cells, [np.ones((4, 2)), np.ones((3, 1))])
    with pytest.raises(ShapeError, match=r"index \(4, 3\) for 2 tables"):
        ad.embedding_cells([(3, 2), (2, 1)], np.zeros((4, 3), int))
    with pytest.raises(ShapeError, match=r"skip \(2, 3\)"):
        ad.linear(np.ones((2, 4)), np.ones((4, 2)), np.zeros(2), skip=np.ones((2, 3)))
    with pytest.raises(ShapeError, match=r"terms of shapes \[\(\), \(2,\)\]"):
        ad.weighted_sum([np.float64(1.0), np.ones(2)], (1.0, 2.0))
    with pytest.raises(ShapeError, match=r"for 1 weights"):
        ad.weighted_sum([np.float64(1.0), np.float64(2.0)], (1.0,))


def test_member_stacks_get_each_members_own_bits():
    """Plain (M, N, F) stacks run every member in one call, with the bits of the members' own calls."""
    rng = np.random.default_rng(3)
    x, skip = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5, 2))
    w, b = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 1, 2))
    w_self, w_nbr, b_gnn = rng.normal(size=(3, 4, 4)), rng.normal(size=(3, 4, 4)), rng.normal(size=(3, 1, 4))
    operator = mean_aggregation_matrix([(1, 2), (0,), (0, 3), (2, 4), (3,)])
    stacked = (ad.linear(x, w, b, relu=True), ad.linear(x, w, b, skip=skip),
               ad.gnn_round(x, operator, w_self, w_nbr, b_gnn))
    for k in range(3):
        own = (ad.linear(x[k], w[k], b[k, 0], relu=True), ad.linear(x[k], w[k], b[k, 0], skip=skip[k]),
               ad.gnn_round(x[k], operator, w_self[k], w_nbr[k], b_gnn[k, 0]))
        assert [out[k].tobytes() for out in stacked] == [out.tobytes() for out in own]


def test_member_stack_shape_errors_name_the_operands():
    x, w, b = np.ones((2, 4, 3)), np.ones((2, 3, 5)), np.zeros((2, 1, 5))
    with pytest.raises(ShapeError, match=r"linear: incompatible shapes x \(2, 4, 3\), w \(3, 3, 5\), b \(2, 1, 5\)"):
        ad.linear(x, np.ones((3, 3, 5)), b)  # three members' weights for two members' rows
    for bias in (np.zeros(5), np.zeros((2, 5)), np.zeros((1, 1, 5)), np.zeros((2, 4, 5))):
        with pytest.raises(ShapeError, match=rf"b \({', '.join(map(str, bias.shape))},?\)"):
            ad.linear(x, w, bias)
    for skip in (np.ones((4, 5)), np.ones((2, 4, 3)), np.ones((1, 4, 5))):
        with pytest.raises(ShapeError, match=rf"skip \({', '.join(map(str, skip.shape))}\)"):
            ad.linear(x, w, b, skip=skip)
    for operands in ((Tensor(x, requires_grad=True), w, b), (x, Tensor(w, requires_grad=True), b),
                     (x, w, Tensor(b, requires_grad=True))):  # a traced op takes no member axis
        with pytest.raises(ShapeError, match=r"x \(2, 4, 3\), w \(2, 3, 5\), b \(2, 1, 5\)"):
            ad.linear(*operands)
    with pytest.raises(ShapeError, match=r"x \(4, 3\), w \(2, 3, 5\)"):
        ad.linear(x[0], w, b)

    operator = mean_aggregation_matrix([(1,), (0, 2), (1, 3), (2,)])
    h, ws, bh = np.ones((2, 4, 3)), np.ones((2, 3, 3)), np.zeros((2, 1, 3))
    with pytest.raises(ShapeError, match=r"h \(2, 4, 3\), operator \(4, 4\), w_self \(3, 3, 3\), w_nbr \(3, 3, 3\)"):
        ad.gnn_round(h, operator, np.ones((3, 3, 3)), np.ones((3, 3, 3)), bh)
    with pytest.raises(ShapeError, match=r"w_nbr \(1, 3, 3\)"):
        ad.gnn_round(h, operator, ws, np.ones((1, 3, 3)), bh)
    for bias in (np.zeros(3), np.zeros((2, 3)), np.zeros((1, 1, 3))):
        with pytest.raises(ShapeError, match=rf"b \({', '.join(map(str, bias.shape))},?\)"):
            ad.gnn_round(h, operator, ws, ws, bias)
    with pytest.raises(ShapeError, match=r"operator \(2, 4, 4\)"):
        ad.gnn_round(h, np.stack([operator] * 2), ws, ws, bh)
    for operands in ((Tensor(h, requires_grad=True), ws, ws, bh), (h, Tensor(ws, requires_grad=True), ws, bh)):
        with pytest.raises(ShapeError, match=r"h \(2, 4, 3\), operator \(4, 4\), w_self \(2, 3, 3\)"):
            ad.gnn_round(operands[0], operator, *operands[1:])


def _held_arrays(obj, seen):
    """Every ndarray reachable from ``obj`` through attributes, mappings and sequences."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _held_arrays(value, seen)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _held_arrays(value, seen)
    elif hasattr(obj, "__dict__"):
        yield from _held_arrays(vars(obj), seen)


def test_a_traced_member_stack_replays_with_the_bits_of_the_stacked_call():
    """Operands that require no gradient may be Tensors of a member stack. Their forward-only plan replays with
    the plain stacked calls' bits, holds only its constants, and gives each replay arrays of its own."""
    rng = np.random.default_rng(4)
    w, b = rng.normal(size=(3, 4, 4)), rng.normal(size=(3, 1, 4))
    w_self, w_nbr, b_gnn = rng.normal(size=(3, 4, 4)), rng.normal(size=(3, 4, 4)), rng.normal(size=(3, 1, 4))
    operator = mean_aggregation_matrix([(1, 2), (0,), (0, 3), (2, 4), (3,)])
    constants = (w, b, w_self, w_nbr, b_gnn, operator)

    def block(x, skip):
        h = ad.linear(x, w, b, relu=True)
        return [ad.linear(h, w, b, skip=skip), ad.gnn_round(h, operator, w_self, w_nbr, b_gnn)]

    x0, skip0 = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5, 4))
    plan = ad.Plan.trace(block, (x0, skip0))
    assert plan.ops == ("linear", "linear", "gnn_round")
    replays = []
    for x, skip in ((rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5, 4))), (x0, skip0)):
        outputs = plan.forward(x, skip)
        assert [out.tobytes() for out in outputs] == [out.tobytes() for out in block(x, skip)]
        replays.append(outputs)
        held = list(_held_arrays(plan, set()))
        assert held and all(any(a is c for c in constants) for a in held), [a.shape for a in held]
    assert not any(np.shares_memory(a, b) for a, b in zip(replays[0], replays[1]))
    before = [out.copy() for out in replays[0]]
    plan.forward(x0 + 1.0, skip0)
    assert [out.tobytes() for out in replays[0]] == [out.tobytes() for out in before]
    plan.backward()  # nothing to differentiate: a no-op


def test_embedding_index_out_of_range():
    with pytest.raises(IndexError, match=r"values in \[0, 3\] for table of size 3"):
        ad.embedding_cells([(4, 1), (3, 2)], np.array([[0, 0], [1, 3]]))
    with pytest.raises(IndexError, match=r"values in \[-1, 0\] for table of size 4"):
        ad.embedding_cells([(4, 1), (3, 2)], np.array([[0, 0], [-1, 2]]))


def test_linear_refuses_a_skip_after_a_relu():
    with pytest.raises(ValueError, match="skip= with relu=True"):
        ad.linear(Tensor(np.ones((2, 3)), requires_grad=True), np.ones((3, 3)), np.zeros(3), relu=True,
                  skip=np.ones((2, 3)))


def _constant_op_calls(rng):
    """Each graph op called on values passed through ``wrap``."""
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3, 2))
    c = rng.normal(size=(4, 3))
    d = rng.normal(size=(3, 2))
    bias2 = rng.normal(size=2)
    skip = rng.normal(size=(4, 2))
    operator = mean_aggregation_matrix([(1, 3), (0, 2), (1,), ()])
    cells = ad.embedding_cells([(4, 3), (3, 2)], np.array([[3, 0], [0, 2], [0, 1], [2, 2]]))
    return {
        "linear": lambda wrap: ad.linear(wrap(a), wrap(b), wrap(bias2)),
        "linear_relu": lambda wrap: ad.linear(wrap(a), wrap(b), wrap(bias2), relu=True),
        "linear_skip": lambda wrap: ad.linear(wrap(a), wrap(b), wrap(bias2), skip=wrap(skip)),
        "gnn_round": lambda wrap: ad.gnn_round(wrap(a), operator, wrap(b), wrap(d), wrap(bias2)),
        "concat": lambda wrap: ad.concat([wrap(a), wrap(c)], axis=1),
        "embed_concat": lambda wrap: ad.embed_concat([wrap(a), wrap(b)], cells, [wrap(c)]),
        "reshape": lambda wrap: ad.reshape(wrap(a), (3, 4)),
        "getitem": lambda wrap: ad.getitem(wrap(a), np.array([1, 1, 3])),
    }


@pytest.mark.parametrize("op", sorted(_constant_op_calls(np.random.default_rng(0))))
def test_array_operands_give_a_plain_array_equal_to_the_tensor_path(op):
    call = _constant_op_calls(np.random.default_rng(11))[op]
    plain = call(lambda x: x)
    traced = call(lambda x: Tensor(x, requires_grad=True))
    assert type(plain) is np.ndarray
    assert isinstance(traced, Tensor) and traced.requires_grad
    assert plain.shape == traced.shape and plain.tobytes() == traced.data.tobytes()

    # only the first operand a Tensor: the result still records the graph
    leaves = []

    def first_only(x):
        leaves.append(Tensor(x, requires_grad=True) if not leaves else x)
        return leaves[-1]

    mixed = call(first_only)
    assert mixed.data.tobytes() == plain.tobytes()
    dot(mixed, np.ones(mixed.shape)).backward()
    assert leaves[0].grad is not None and leaves[0].grad.shape == leaves[0].shape


@given(st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=40.0, size=(5, 3))
    out = ad.softmax_np(x)
    assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(out >= 0.0)


def test_softmax_shift_invariance():
    x = np.array([[1.0, 2.0, 3.0], [0.0, -4.0, 7.0]])
    base = ad.softmax_np(x)
    shifted = ad.softmax_np(x + 1000.0)
    assert np.allclose(base, shifted, atol=1e-12)
    # integer inputs shifted by an exact float stay bitwise identical
    assert np.array_equal(base, ad.softmax_np(x + 4.0))


_MAX_VALUES = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -1.5, 2.0**-1074])


@given(st.integers(2, 7), st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_fold_classes_max_is_numpy_max_bit_for_bit(width, rows, data):
    """±0, ±inf and NaN included: the column chain picks what numpy's reduction picks.

    The NaN is numpy's, with the sign bit clear. Of a NaN with the sign bit set
    (x86's inf - inf) either may return the other sign: both are NaN."""
    values = data.draw(st.lists(_MAX_VALUES | st.floats(allow_nan=False), min_size=rows * width, max_size=rows * width))
    x = np.array(values, dtype=np.float64).reshape(rows, width)
    assert ad.fold_classes(np.maximum, x).tobytes() == x.max(axis=-1, keepdims=True).tobytes()
    stack = np.stack([x, x[::-1]])  # leading axes
    assert ad.fold_classes(np.maximum, stack).tobytes() == stack.max(axis=-1, keepdims=True).tobytes()


@given(st.integers(2, 7), st.integers(1, 6), st.integers(0, 2**31))
@settings(max_examples=200, deadline=None)
def test_fold_classes_sum_is_numpy_sum_bit_for_bit(width, rows, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, rows, width)) * 10.0 ** rng.integers(-8, 9, size=(3, rows, width))
    assert ad.fold_classes(np.add, x).tobytes() == x.sum(axis=-1, keepdims=True).tobytes()
    assert ad.fold_classes(np.add, x[0]).tobytes() == x[0].sum(axis=-1, keepdims=True).tobytes()
    view = x[..., ::-1]  # a strided class axis, as the 4-class head's last three columns
    assert ad.fold_classes(np.add, view).tobytes() == view.sum(axis=-1, keepdims=True).tobytes()


def test_fold_classes_hands_wide_axes_to_numpy():
    x = np.random.default_rng(0).normal(size=(50, 9)) * 10.0 ** np.arange(-4, 5)
    assert ad.fold_classes(np.add, x).tobytes() == x.sum(axis=-1, keepdims=True).tobytes()


@given(st.integers(0, 2**31), st.sampled_from([(6, 5), (2, 2), (50, 32), (7,)]))
@settings(max_examples=60, deadline=None)
def test_gather_backward_adds_rows_in_index_order_as_add_at(seed, shape):
    """The scatter of a row getitem has ``np.add.at``'s bits."""
    rng = np.random.default_rng(seed)
    table = Tensor(rng.normal(size=shape), requires_grad=True)
    idx = rng.integers(0, shape[0], size=rng.integers(1, 200))
    g = rng.normal(size=(len(idx), *shape[1:])) * 10.0 ** rng.integers(-6, 7, size=(len(idx), *shape[1:]))
    gathered = ad.getitem(table, idx)
    dot(gathered, g).backward()
    expected = np.zeros(shape)
    np.add.at(expected, idx, g)
    assert table.grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("key", [np.array([0, -1]), np.array([[0, 1]]), np.array([True, False, True]),
                                 np.array([0.0, 1.0]), [0, 1], 1, (slice(None), slice(0, 2))],
                         ids=["negative", "2-D", "mask", "float", "list", "int", "slices"])
def test_getitem_refuses_a_key_that_is_not_a_row_index(key):
    a = np.arange(12.0).reshape(3, 4)
    for operand in (a, Tensor(a, requires_grad=True)):
        with pytest.raises(IndexError, match="getitem: takes a 1-D array of non-negative integer rows, not "):
            ad.getitem(operand, key)
    assert ad.getitem(a, np.array([], np.int64)).shape == (0, 4)


# -- gradient checks per primitive -------------------------------------------


def _check_grad(build, x):
    """build(tensor) -> scalar Tensor; compares backward to central diffs."""
    t = Tensor(x, requires_grad=True)
    loss = build(t)
    loss.backward()
    numeric = central_diff_tensor(lambda: build(Tensor(t.data)).item(), t)
    assert max_rel_error(t.grad, numeric) < GRAD_TOL


def test_grad_matmul():
    rng = np.random.default_rng(0)
    b = Tensor(rng.normal(size=(4, 3)))
    c = rng.normal(size=(2, 3))
    _check_grad(lambda t: dot(ad.linear(t, b, np.zeros(3)), c), rng.normal(size=(2, 4)))


def test_grad_add_with_bias_broadcast():
    rng = np.random.default_rng(1)
    bias = Tensor(rng.normal(size=3), requires_grad=True)
    x = Tensor(rng.normal(size=(5, 3)))

    def build():
        h = ad.linear(x, np.eye(3), bias)  # every row gets the bias
        return ad.mse(h, np.zeros((5, 3)))[0]

    def loss_fn():
        return build().item()

    loss = build()
    loss.backward()
    numeric = central_diff_tensor(loss_fn, bias)
    assert max_rel_error(bias.grad, numeric) < GRAD_TOL


def test_grad_relu_away_from_kink():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 4)) + np.sign(rng.normal(size=(4, 4))) * 0.1
    _check_grad(lambda t: dot(ad.linear(t, np.eye(4), np.zeros(4), relu=True), np.ones((4, 4))), x)


def test_grad_concat_and_row_gather():
    rng = np.random.default_rng(3)

    def build(t):
        rows = ad.getitem(t, np.array([2, 0, 0]))  # row 0 twice, row 1 not at all
        pieces = ad.concat([rows, t], axis=1)
        return ad.mse(pieces, np.ones((3, 8)))[0]

    _check_grad(build, rng.normal(size=(3, 4)))


@pytest.mark.parametrize("trainable", [("t0",), ("t1",), ("block",), ("t0", "t1", "block")])
def test_grad_embed_concat(trainable):
    rng = np.random.default_rng(4)
    values = {"t0": rng.normal(size=(3, 5)), "t1": rng.normal(size=(2, 2)), "block": rng.normal(size=(4, 3))}
    cells = ad.embedding_cells([(3, 5), (2, 2)], np.array([[0, 1], [2, 1], [2, 0], [1, 1]]))

    def build(t):
        rows = ad.embed_concat([t["t0"], t["t1"]], cells, [t["block"]])
        return ad.mse(rows, np.zeros((4, 10)))[0]

    _check_operand_grads(build, values, trainable)


@pytest.mark.parametrize("trainable", [("a",), ("c",), ("a", "b", "c")])
def test_grad_weighted_sum(trainable):
    rng = np.random.default_rng(5)
    values = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4), "c": rng.normal(size=(2, 2))}

    def build(t):
        terms = [ad.mse(t[name], np.zeros(np.shape(values[name])))[0] for name in ("a", "b", "c")]
        return ad.weighted_sum(terms, (0.03, 1.5, 2.0))

    _check_operand_grads(build, values, trainable)


def test_grad_reshape():
    rng = np.random.default_rng(8)
    _check_grad(lambda t: ad.mse(ad.reshape(t, (6,)), np.arange(6.0))[0], rng.normal(size=(2, 3)))


def _check_operand_grads(build, values, trainable):
    """build(operands) -> scalar Tensor; each trainable operand's gradient vs central diffs.

    Operands not named in ``trainable`` are passed as plain arrays.
    """
    leaves = {name: Tensor(value, requires_grad=True) for name, value in values.items() if name in trainable}

    def operands(tensors):
        return {name: tensors.get(name, value) for name, value in values.items()}

    build(operands(leaves)).backward()
    for name, leaf in leaves.items():
        frozen = {other: Tensor(t.data) for other, t in leaves.items()}
        numeric = central_diff_tensor(lambda: build(operands(frozen)).item(), frozen[name])
        assert max_rel_error(leaf.grad, numeric) < GRAD_TOL, name


def _subsets(names):
    return [tuple(n for i, n in enumerate(names) if mask >> i & 1) for mask in range(1, 2 ** len(names))]


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("trainable", _subsets(("x", "w", "b")))
def test_grad_linear(relu, trainable):
    rng = np.random.default_rng(12)
    values = {"x": rng.normal(size=(5, 4)), "w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
    weights = rng.normal(size=(5, 3))

    def build(t):
        return dot(ad.linear(t["x"], t["w"], t["b"], relu=relu), weights)

    _check_operand_grads(build, values, trainable)


@pytest.mark.parametrize("trainable", [("skip",), ("x", "skip"), ("x", "w", "b", "skip")])
def test_grad_linear_with_skip(trainable):
    rng = np.random.default_rng(16)
    values = {"x": rng.normal(size=(5, 4)), "w": rng.normal(size=(4, 3)), "b": rng.normal(size=3),
              "skip": rng.normal(size=(5, 3))}

    def build(t):
        out = ad.linear(t["x"], t["w"], t["b"], skip=t["skip"])
        return ad.mse(out, np.zeros((5, 3)))[0]

    _check_operand_grads(build, values, trainable)


@pytest.mark.parametrize("trainable", [("h",), ("w_self",), ("w_nbr",), ("b",), ("h", "w_self", "w_nbr", "b")])
def test_grad_gnn_round(trainable):
    rng = np.random.default_rng(13)
    operator = mean_aggregation_matrix([(1, 2), (0,), (0, 3), (2,), ()])  # node 4 is isolated
    values = {
        "h": rng.normal(size=(5, 3)), "w_self": rng.normal(size=(3, 4)),
        "w_nbr": rng.normal(size=(3, 4)), "b": rng.normal(size=4),
    }
    weights = rng.normal(size=(5, 4))

    def build(t):
        return dot(ad.gnn_round(t["h"], operator, t["w_self"], t["w_nbr"], t["b"]), weights)

    _check_operand_grads(build, values, trainable)


@pytest.mark.parametrize("relu", [False, True])
def test_linear_equals_the_unfused_chain_bit_for_bit(relu):
    rng = np.random.default_rng(14)
    x, w, b, g = rng.normal(size=(6, 4)), rng.normal(size=(4, 5)), rng.normal(size=5), rng.normal(size=(6, 5))
    x[0, :] = 0.0  # a row whose units all sit on the ReLU's kink
    tx, tw, tb = (Tensor(v, requires_grad=True) for v in (x, w, b))
    out = ad.linear(tx, tw, tb, relu=relu)
    dot(out, g).backward()

    # the chain it replaces: matmul, bias add, relu; each gradient lands as g + 0.0
    z = x @ w
    z = z + b
    if relu:
        mask = z > 0.0
        value = np.where(mask, z, 0.0)
        g_z = g * mask + 0.0
    else:
        value, g_z = z, g + 0.0
    assert out.data.tobytes() == value.tobytes()
    assert tx.grad.tobytes() == (g_z @ w.T + 0.0).tobytes()
    assert tw.grad.tobytes() == (x.T @ g_z + 0.0).tobytes()
    assert tb.grad.tobytes() == (g_z.sum(axis=0) + 0.0).tobytes()


def test_gnn_round_equals_the_unfused_chain_bit_for_bit():
    rng = np.random.default_rng(15)
    operator = mean_aggregation_matrix([(1, 2), (0,), (0, 3), (2,), ()])
    h, ws, wn = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    b, g = rng.normal(size=4), rng.normal(size=(5, 4))
    th, tws, twn, tb = (Tensor(v, requires_grad=True) for v in (h, ws, wn, b))
    out = ad.gnn_round(th, operator, tws, twn, tb)
    dot(out, g).backward()

    # the chain it replaces: relu(add(add(h @ ws, (A @ h) @ wn), b))
    self_part = h @ ws
    agg = operator @ h
    nbr_part = agg @ wn
    z = (self_part + nbr_part) + b
    mask = z > 0.0
    g_z = g * mask + 0.0
    # h is reached first through its self path, then through the neighbour mean
    g_h = g_z @ ws.T + 0.0
    g_h += operator.T @ (g_z @ wn.T + 0.0)
    assert out.data.tobytes() == np.where(mask, z, 0.0).tobytes()
    assert th.grad.tobytes() == g_h.tobytes()
    assert tws.grad.tobytes() == (h.T @ g_z + 0.0).tobytes()
    assert twn.grad.tobytes() == (agg.T @ g_z + 0.0).tobytes()
    assert tb.grad.tobytes() == (g_z.sum(axis=0) + 0.0).tobytes()


def _scaled_normal(rng, shape):
    """Normal draws spread over twelve decades, so that a change in summation order changes bits."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_embed_concat_equals_four_lookups_and_two_concats_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    shapes = [(6, 5), (2, 2), (2, 2), (4, 3)]  # the model's four tables
    index = np.stack([rng.integers(0, vocab, size=148) for vocab, _ in shapes], axis=1)
    tables = [rng.normal(size=shape) for shape in shapes]
    continuous, prior = rng.normal(size=(148, 5)), rng.normal(size=(148, 15))
    g = _scaled_normal(rng, (148, 32))

    fused = [Tensor(v, requires_grad=True) for v in (*tables, continuous, prior)]
    out = ad.embed_concat(fused[:4], ad.embedding_cells(shapes, index), fused[4:])
    dot(out, g).backward()

    # the chain it replaces: one row gather per table (whose backward is a bincount per table), two concats
    chain = [Tensor(v, requires_grad=True) for v in (*tables, continuous, prior)]
    lookups = [ad.getitem(table, index[:, k]) for k, table in enumerate(chain[:4])]
    expected = ad.concat([ad.concat(lookups, axis=1), *chain[4:]], axis=1)
    dot(expected, g).backward()
    assert out.data.tobytes() == expected.data.tobytes()
    for a, b in zip(fused, chain):
        assert a.grad.tobytes() == b.grad.tobytes()


def test_linear_skip_equals_add_after_linear_bit_for_bit():
    """A residual block on an ``h`` that feeds three heads, against the chain ``h + linear(relu(linear(h)))``:
    ``h`` sums its six gradients as that chain did, head by head, each head's skip before its inner path."""
    rng = np.random.default_rng(17)
    x, w_h, b_h = rng.normal(size=(7, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
    heads = [[rng.normal(size=(5, 5)), rng.normal(size=5), rng.normal(size=(5, 5)), rng.normal(size=5)] for _ in range(3)]
    gs = [_scaled_normal(rng, (7, 5)) for _ in range(3)]

    leaves = [Tensor(v, requires_grad=True) for v in (x, w_h, b_h, *(p for head in heads for p in head))]
    h = ad.linear(*leaves[:3])
    outs = [ad.linear(ad.linear(h, a_w, a_b, relu=True), b_w, b_b, skip=h)
            for a_w, a_b, b_w, b_b in zip(*[iter(leaves[3:])] * 4)]
    ad.weighted_sum([dot(out, g) for out, g in zip(outs, gs)], (1.0, 1.0, 1.0)).backward()

    # the chain's forward and backward; each leaf's gradient lands in a zero buffer, as g + 0.0
    h_value, g_h, head_grads = x @ w_h + b_h, [], []
    for (a_w, a_b, b_w, b_b), g, out in zip(heads, gs, outs):
        r = np.maximum(h_value @ a_w + a_b, 0.0)
        assert out.data.tobytes() == (h_value + (r @ b_w + b_b)).tobytes()
        g_z = (g @ b_w.T) * (r > 0.0)
        g_h += [g, g_z @ a_w.T]  # the skip's, then the inner path's
        head_grads += [h_value.T @ g_z, g_z.sum(axis=0), r.T @ g, g.sum(axis=0)]
    g_h = sum(g_h[1:], g_h[0])
    expected = [g_h @ w_h.T, x.T @ g_h, g_h.sum(axis=0), *head_grads]
    assert [leaf.grad.tobytes() for leaf in leaves] == [(g + 0.0).tobytes() for g in expected]


def test_weighted_sum_equals_the_mul_add_chain_bit_for_bit():
    """Against ``(l1 * 0.03 + l2 * 1.0) + l3 * 1.0``: each loss gets its weight as its gradient."""
    rng = np.random.default_rng(18)
    values = [_scaled_normal(rng, (9,)) for _ in range(3)]
    lambdas = (0.03, 1.0, 1.0)
    leaves = [Tensor(v, requires_grad=True) for v in values]
    total = ad.weighted_sum([ad.mse(leaf, np.zeros(9))[0] for leaf in leaves], lambdas)
    total.backward()

    l1, l2, l3 = ((v * v).sum() / 9 for v in values)
    assert total.data.tobytes() == ((l1 * 0.03 + l2 * 1.0) + l3 * 1.0).tobytes()
    assert total.data == (values[0] ** 2).mean() * 0.03 + (values[1] ** 2).mean() + (values[2] ** 2).mean()
    # mse's backward, 2 * diff * (g / n), with g the loss's weight; each lands in a zero buffer
    assert [leaf.grad.tobytes() for leaf in leaves] == [(2.0 * v * (lam / 9) + 0.0).tobytes()
                                                       for v, lam in zip(values, lambdas)]


class _FirstProductSums(np.ndarray):
    """A float64 weight whose matrix products sum each entry from its first product, not from 0.0, with no BLAS call.

    BLAS kernels differ in how they sum products that underflow to -0.0: the AVX2 ones add them to an output they
    zero first, and so give +0.0 for every such product. Summed from the first product they give -0.0 on any machine.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is not np.matmul or method != "__call__" or kwargs:
            return NotImplemented
        a, b = (np.asarray(x) for x in inputs)
        return sum((a[:, k, None] * b[k] for k in range(1, a.shape[1])), a[:, 0, None] * b[0])


# times _W, every product underflows to -0.0; with the -0.0 bias every pre-activation is -0.0
_TINY = np.full((5, 3), -1e-300)
_W, _B = np.full((3, 4), 1e-300).view(_FirstProductSums), np.full(4, -0.0)
_OPERATOR = mean_aggregation_matrix([(1, 2), (0,), (0, 3), (2, 4), (3,)])
_RELU_OPS = {
    "linear": (lambda x: ad.linear(x, _W, _B, relu=True), lambda x: ad.linear(x, _W, _B)),
    "gnn_round": (lambda h: ad.gnn_round(h, _OPERATOR, _W, _W, _B), lambda h: h @ _W + (_OPERATOR @ h) @ _W + _B),
}


@pytest.mark.parametrize("name", sorted(_RELU_OPS))
def test_relu_maps_negative_zero_to_positive_zero_and_propagates_nan(name):
    op, pre_activation = _RELU_OPS[name]
    z = pre_activation(_TINY)
    assert np.all(np.signbit(z)) and np.all(z == 0.0)
    for out in (op(_TINY), op(Tensor(_TINY, requires_grad=True)).data):
        assert out.tobytes() == np.zeros_like(z).tobytes()  # +0.0, as np.where(z > 0, z, 0.0) gives

    x = _TINY.copy()
    x[1, 0] = np.nan
    nan_rows = np.isnan(pre_activation(x)).any(axis=1)
    assert nan_rows[1]
    tx = Tensor(x, requires_grad=True)
    out = op(tx)
    # a NaN pre-activation propagates instead of being zeroed, on both paths
    assert np.all(np.isnan(out.data[nan_rows])) and not np.isnan(out.data[~nan_rows]).any()
    assert out.data.tobytes() == op(x).tobytes()
    dot(out, np.ones(out.shape)).backward()
    assert np.all(tx.grad == 0.0)  # NaN > 0 is False, so the mask stops the gradient there too


def test_linear_and_gnn_round_refuse_an_operand_that_is_not_float64():
    """A float16 product keeps a -0.0 pre-activation through the ReLU, against the contract above: such an operand is
    refused, named with its dtype, plain or held by a Tensor."""
    half = np.float16
    with pytest.raises(TypeError, match="linear: operand x is float16, expected float64"):
        ad.linear(np.full((5, 3), -2.0**-14, half), np.full((3, 4), 2.0**-14, half), np.full(4, -0.0, half), relu=True)
    x, w, b = np.ones((4, 3)), np.ones((3, 2)), np.zeros(2)
    with pytest.raises(TypeError, match="linear: operand b is float32"):
        ad.linear(Tensor(x), w, b.astype(np.float32))
    with pytest.raises(TypeError, match="linear: operand skip is int64"):
        ad.linear(x, w, b, skip=np.zeros((4, 2), np.int64))
    h, op = np.ones((3, 2)), np.eye(3)
    with pytest.raises(TypeError, match="gnn_round: operand operator is float32"):
        ad.gnn_round(h, op.astype(np.float32), w[:2], w[:2], b)
    with pytest.raises(TypeError, match="gnn_round: operand w_nbr is float16"):
        ad.gnn_round(Tensor(h, requires_grad=True), op, w[:2], w[:2].astype(half), b)


def test_random_five_parameter_graph_matches_finite_differences():
    """Small multi-op graph over five parameter tensors."""
    rng = np.random.default_rng(42)
    store = ParamStore({
        "w1": rng.normal(size=(3, 4)), "b1": rng.normal(size=4), "w2": rng.normal(size=(4, 2)),
        "emb": rng.normal(size=(5, 3)), "scale": rng.normal(size=(2,)),
    })
    w1, b1, w2, emb, scale = (store[name] for name in store.names())
    cells = ad.embedding_cells([(5, 3)], np.array([[0], [4], [2], [2]]))
    mean_operator = mean_aggregation_matrix([(1, 3), (0, 2), (1,), ()])

    def compute() -> Tensor:
        x = ad.embed_concat([emb], cells)
        h = ad.gnn_round(x, mean_operator, w1, w1, b1)  # one weight in both roles
        out = ad.linear(ad.linear(h, w2, scale), ad.reshape(scale, (2, 1)), np.zeros(1))  # scale as bias and weight
        return ad.mse(out, np.zeros((4, 1)))[0]

    loss = compute()
    loss.backward()
    for name, p in store.items():
        numeric = central_diff_tensor(lambda: compute().item(), p)
        assert max_rel_error(p.grad, numeric) < GRAD_TOL, name


# -- losses -------------------------------------------------------------------


def test_wce_uniform_logits_is_ln3():
    logits = Tensor(np.zeros((1, 3)), requires_grad=True)
    loss, n = ad.weighted_cross_entropy(logits, [0], np.ones(3))
    assert n == 1
    assert abs(loss.item() - np.log(3.0)) < 1e-12


def test_wce_single_masked_row_zero_loss_and_grad():
    logits = Tensor(np.array([[2.0, -1.0, 0.5]]), requires_grad=True)
    loss, n = ad.weighted_cross_entropy(logits, [-1], np.ones(3))
    assert n == 0
    assert loss.item() == 0.0
    loss.backward()
    assert logits.grad is None or not logits.grad.any()


def test_wce_weighted_example_frozen_oracle():
    # oracle: 2 * (-log(e^2 / (e^2 + 2))) evaluated directly
    expected = 0.479089532443769
    logits = Tensor(np.array([[2.0, 0.0, 0.0]]))
    loss, _ = ad.weighted_cross_entropy(logits, [0], np.array([2.0, 1.0, 1.0]))
    assert abs(loss.item() - expected) < 1e-12


def test_wce_masked_rows_contribute_no_gradient():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 3))
    labels = np.array([1, -1, 2, -1])
    weights = np.array([1.0, 2.0, 0.5])

    t1 = Tensor(x.copy(), requires_grad=True)
    loss1, _ = ad.weighted_cross_entropy(t1, labels, weights)
    loss1.backward()
    # perturbing a masked row's logits changes nothing
    x2 = x.copy()
    x2[1] += 17.0
    x2[3] -= 5.0
    t2 = Tensor(x2, requires_grad=True)
    loss2, _ = ad.weighted_cross_entropy(t2, labels, weights)
    loss2.backward()
    assert loss1.item() == loss2.item()
    assert np.array_equal(t1.grad[0], t2.grad[0])
    assert np.array_equal(t1.grad[2], t2.grad[2])
    assert not t1.grad[1].any() and not t2.grad[3].any()


def test_wce_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    labels = np.array([0, 2, -1, 1, 1])
    weights = np.array([0.5, 1.5, 3.0])
    t = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    loss, _ = ad.weighted_cross_entropy(t, labels, weights)
    loss.backward()
    numeric = central_diff_tensor(
        lambda: ad.weighted_cross_entropy(Tensor(t.data), labels, weights)[0].item(), t
    )
    assert max_rel_error(t.grad, numeric) < GRAD_TOL


def test_wce_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        ad.weighted_cross_entropy(Tensor(np.zeros((1, 3))), [0], np.array([1.0, 0.0, 1.0]))


def test_mse_examples():
    pred = Tensor(np.array([1.0, 2.0]))
    loss, n = ad.mse(pred, np.array([1.0, 2.0]))
    assert loss.item() == 0.0 and n == 2

    loss, n = ad.mse(Tensor(np.array([3.0])), np.array([1.0]))
    assert loss.item() == 4.0 and n == 1


def test_mse_gradient_single_element():
    t = Tensor(np.array([3.0]), requires_grad=True)
    loss, _ = ad.mse(t, np.array([1.0]))
    loss.backward()
    assert abs(t.grad[0] - 4.0) < 1e-12
    numeric = central_diff_tensor(lambda: ad.mse(Tensor(t.data), np.array([1.0]))[0].item(), t)
    assert max_rel_error(t.grad, numeric) < GRAD_TOL


def test_mse_all_masked():
    t = Tensor(np.array([3.0, 1.0]), requires_grad=True)
    loss, n = ad.mse(t, np.zeros(2), np.zeros(2, dtype=bool))
    assert loss.item() == 0.0 and n == 0
    loss.backward()
    assert t.grad is None or not t.grad.any()


def test_mse_masked_entries_do_not_leak():
    t = Tensor(np.array([3.0, 100.0]), requires_grad=True)
    mask = np.array([True, False])
    loss, n = ad.mse(t, np.array([1.0, 0.0]), mask)
    assert n == 1 and loss.item() == 4.0
    loss.backward()
    assert t.grad[1] == 0.0


# -- optimizer ----------------------------------------------------------------


def test_adam_zero_gradient_leaves_parameters_unchanged():
    store = ParamStore({"p": np.array([1.5, -2.0])})
    p = store["p"]
    p.grad[...] = 0.0
    ad.adam_step(store, lr=0.1)
    assert p.data.tolist() == [1.5, -2.0]
    assert store.step_count == 1


def test_adam_single_scalar_first_step():
    store = ParamStore({"p": np.array([0.0])})
    p = store["p"]
    p.grad[...] = 1.0
    ad.adam_step(store, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    expected_delta = -0.1 * 1.0 / (1.0 + 1e-8)  # bias-corrected m=v=1
    assert abs(p.data[0] - expected_delta) < 1e-15


def test_adam_two_runs_bitwise_identical():
    def run():
        rng = np.random.default_rng(123)
        store = ParamStore({"p": rng.normal(size=(4, 3)), "q": rng.normal(size=3)})
        p, q = store["p"], store["q"]
        for step in range(25):
            loss = ad.mse(ad.linear(p, ad.reshape(q, (3, 1)), np.array([0.5])), np.zeros((4, 1)))[0]
            store.zero_grad()
            loss.backward()
            ad.adam_step(store, lr=1e-2)
        return store.state_arrays()

    a, b = run(), run()
    assert all(np.array_equal(a[k], b[k]) for k in a)


def _adam_reference(values, moments, grads, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam, one parameter at a time, as plain numpy."""
    for name, value in values.items():
        g = grads.get(name)
        g = np.zeros_like(value) if g is None else g
        m, v = moments[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        value -= lr * m_hat / (np.sqrt(v_hat) + eps)


def test_flat_adam_equals_the_per_parameter_update_bit_for_bit():
    rng = np.random.default_rng(7)
    init = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4), "idle": rng.normal(size=(2, 2)),
            "direct": rng.normal(size=5)}
    store = ParamStore(init)
    assert store._work.shape == (2, store._flat.size)  # Adam's scratch rows
    values = {name: value.copy() for name, value in init.items()}
    moments = {name: (np.zeros_like(value), np.zeros_like(value)) for name, value in init.items()}
    x = rng.normal(size=(2, 3))
    live = store.arrays()
    for step in range(1, 6):
        store.zero_grad()
        # "w" and "b" get their gradients from backward, "direct" by a write into its view, "idle" none
        h = ad.linear(x, store["w"], store["b"], relu=True)
        ad.mse(h, np.zeros((2, 4)))[0].backward()
        store["direct"].grad[...] = rng.normal(size=5)
        grads = {name: store[name].grad.copy() for name in ("w", "b", "direct")}
        snapshot = store.state_arrays()
        ad.adam_step(store, lr=0.05)
        _adam_reference(values, moments, grads, step, lr=0.05)
        for name in init:
            assert store[name].data.tobytes() == values[name].tobytes(), (name, step)
        # state_arrays() are copies: the step left the snapshot as it was
        assert not np.array_equal(snapshot["w"], store["w"].data)
    assert store["idle"].data.tobytes() == init["idle"].tobytes()
    # arrays() are the live values, not copies
    for name, array in live.items():
        assert array is store[name].data or np.shares_memory(array, store[name].data)
        assert array.tobytes() == values[name].tobytes()
    copies = store.state_arrays()
    copies["w"][0, 0] += 1.0
    assert store["w"].data[0, 0] == values["w"][0, 0]


def test_the_store_views_stay_on_its_flat_buffers_and_a_traced_plan_follows_them():
    """A plan traced on ``init_params``' store reads the weights each Adam step leaves and adds
    into the store's gradient buffer, before and after every step and every fill."""
    store = init_params(ModelConfig(), seed=0)
    w, b = store["vol0_w"], store["vol0_b"]
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(6, 8)), rng.normal(size=(6, 32))
    plan = ad.Plan.trace(lambda x, y: [ad.mse(ad.linear(x, w, b, relu=True), y)[0]], (x, y))

    def assert_on_buffers():
        for name, p in store.items():
            assert np.shares_memory(p.data, store._flat) and np.shares_memory(p.grad, store._grad), name

    for step in range(3):
        assert_on_buffers()
        store.zero_grad()
        assert_on_buffers()
        assert not store._grad.any()
        x, y = rng.normal(size=(6, 8)), rng.normal(size=(6, 32))
        (value,) = plan.forward(x, y)
        plan.backward()
        # the same loss built on copies of the store's current weights
        w_now, b_now = Tensor(w.data.copy(), requires_grad=True), Tensor(b.data.copy(), requires_grad=True)
        one_shot = ad.mse(ad.linear(x, w_now, b_now, relu=True), y)[0]
        one_shot.backward()
        assert np.float64(value).tobytes() == one_shot.data.tobytes(), step
        assert w.grad.tobytes() == w_now.grad.tobytes() and b.grad.tobytes() == b_now.grad.tobytes(), step
        assert np.count_nonzero(store._grad) == np.count_nonzero(w.grad) + np.count_nonzero(b.grad) > 0
        store.scale_grads(0.5)
        assert_on_buffers()
        before = w.data.copy()
        ad.adam_step(store, lr=1e-2)
        assert_on_buffers()
        assert not np.array_equal(before, w.data)


def test_gradient_buffers_never_alias():
    """Each leaf gets a gradient buffer of its own, a skip too, whose op hands it the incoming gradient array itself;
    an op's output gets no gradient."""
    x = Tensor(np.array([[1.0, -2.0], [3.0, 0.5]]), requires_grad=True)
    w = Tensor(np.array([[0.5, 1.0], [-1.0, 2.0]]), requires_grad=True)
    skip = Tensor(np.array([[0.25, -1.0], [2.0, 1.5]]), requires_grad=True)
    y = ad.linear(x, w, np.zeros(2), skip=skip)
    z = ad.linear(y, w, np.zeros(2), skip=y)  # y consumed twice by one op, w by two
    dot(z, np.array([[1.0, -2.0], [0.5, 3.0]])).backward()
    assert y.grad is None and z.grad is None
    leaves = [x, w, skip]
    before = [leaf.grad.copy() for leaf in leaves]
    for i, leaf in enumerate(leaves):
        leaf.grad += 100.0
        for j, other in enumerate(leaves):
            if j != i:
                assert np.array_equal(other.grad, before[j]), (i, j)
        leaf.grad -= 100.0


def test_a_leaf_used_by_several_ops_gets_every_gradient():
    a = Tensor(np.array([[1.0, 2.0, -3.0]]), requires_grad=True)
    linear_terms = dot(ad.linear(a, 3.0 * np.eye(3), np.zeros(3), skip=a), np.ones((1, 3)))  # 3a + a
    square = ad.mse(a, np.zeros((1, 3)))[0]  # sum(a^2) / 3
    ad.weighted_sum([linear_terms, square], (1.0, 3.0)).backward()
    # d/da (3a + a + 3 * sum(a^2) / 3) = 3 + 1 + 2a
    assert a.grad.tolist() == [[6.0, 8.0, -2.0]]
