"""A tour of the reverse-mode autodiff engine.

Build tensors, compose the ops the traffic model uses (a dense layer and
a message-passing round, each one fused op), check the gradient of a
masked mean squared error against central finite differences, and run a
few Adam steps on a tiny least-squares problem (a one-unit dense layer
under that loss), first building the graph on every step, then tracing it
once into a plan and replaying the plan.
"""

import numpy as np

from t4c import autodiff as ad
from t4c.autodiff import ParamStore, Tensor
from t4c.data import mean_aggregation_matrix

# --- tensors and a few ops ---------------------------------------------------

x = Tensor([[1.0, -2.0], [0.5, 3.0]])
w = Tensor(np.array([[0.3, -0.1], [0.8, 0.4]]), requires_grad=True)
b = np.zeros(2)
h = ad.linear(x, w, b, relu=True)
print("relu(x @ w + b) =\n", h.data)

# softmax rows sum to one, stabilized against large logits
probs = ad.softmax_np(np.array([[100.0, 101.0, 99.0]]))
print("softmax:", probs, "sum:", probs.sum())

# neighbor means are a product with the graph's fixed mean-aggregation
# matrix; empty neighborhoods give zeros. A message-passing round mixes
# each node's own state with that mean: relu(h @ Ws + (A @ h) @ Wn + b)
feats = np.arange(8.0).reshape(4, 2)
mean_operator = mean_aggregation_matrix([(1, 2), (0,), (), (0, 1, 2)])
print("neighbor means:\n", mean_operator @ feats)
print("one round, Ws = 0 and Wn = I:\n", ad.gnn_round(feats, mean_operator, np.zeros((2, 2)), np.eye(2), b))

# --- gradients vs finite differences -----------------------------------------

# the speed head's loss: a mean squared error over the entries the mask keeps
target = np.array([[0.5, 0.0], [1.0, 2.0]])
mask = np.array([[True, False], [True, True]])


def loss_of(weight):
    return ad.mse(ad.linear(x, weight, b, relu=True), target, mask)[0]


loss_of(w).backward()
analytic = w.grad.copy()

h_step = 1e-5
numeric = np.zeros_like(w.data)
for i in range(w.data.shape[0]):
    for j in range(w.data.shape[1]):
        orig = w.data[i, j]
        w.data[i, j] = orig + h_step
        up = float(loss_of(w.data).data)
        w.data[i, j] = orig - h_step
        down = float(loss_of(w.data).data)
        w.data[i, j] = orig
        numeric[i, j] = (up - down) / (2 * h_step)
print("max |analytic - numeric|:", np.abs(analytic - numeric).max())

# --- masked losses ------------------------------------------------------------

ce_logits = Tensor(np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), requires_grad=True)
labels = np.array([0, -1])  # second row masked out
ce, n_rows = ad.weighted_cross_entropy(ce_logits, labels, np.array([2.0, 1.0, 1.0]))
print(f"weighted CE over {n_rows} row(s): {float(ce.data):.6f}")

# --- Adam on a one-parameter fit ----------------------------------------------

# y = 2.5 x as a dense layer with one input, one unit and no bias: (20, 1) @ (1, 1)
store = ParamStore({"slope": np.array([[0.0]])})
slope = store["slope"]
no_bias = np.zeros(1)
xs = np.linspace(-1, 1, 20).reshape(20, 1)
ys = 2.5 * xs
for step in range(200):
    fit, _ = ad.mse(ad.linear(xs, slope, no_bias), ys)
    store.zero_grad()
    fit.backward()
    ad.adam_step(store, lr=0.05)
print("fitted slope (target 2.5):", slope.data[0, 0])

# --- the same fit, traced once and replayed -----------------------------------

# Plan.trace runs the function once on Tensors holding the example inputs and
# records its op sequence; each replay binds new inputs (same shapes) and runs
# the same numpy expressions, adding the gradient into the store's flat buffer.
# The store is built once from a mapping, so the views the plan traced stay
# its weights and gradients for good.
store = ParamStore({"slope": np.array([[0.0]])})
slope = store["slope"]
plan = ad.Plan.trace(lambda x, y: [ad.mse(ad.linear(x, slope, no_bias), y)[0]], (xs, ys))
print("plan ops:", plan.ops)
rng = np.random.default_rng(0)
for step in range(200):
    batch = rng.uniform(-1, 1, size=(20, 1))
    store.zero_grad()
    (value,) = plan.forward(batch, 2.5 * batch)
    plan.backward()
    ad.adam_step(store, lr=0.05)
print(f"replayed fit: slope {slope.data[0, 0]:.4f}, last loss {float(value):.2e}")
