"""Tape-based reverse-mode automatic differentiation over dense numpy arrays.

The graph is dynamic: every op records its parents and a backward closure on
the output tensor, and the tape is rebuilt on each forward pass.  Tensors are
immutable after construction except for gradient accumulation, and a graph
together with its tensors is confined to one thread for the duration of a
forward/backward pass.

Training code typically runs in float32; gradient verification runs the same
graphs in float64.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

Axis = int | tuple[int, ...] | None


class Tensor:
    """N-d float array with an optional gradient slot.

    A tensor is either a leaf (no parents) or the recorded result of an op.
    Leaves with ``requires_grad=True`` receive accumulated gradients from
    :func:`backward`; repeated backward calls without :meth:`Adam.zero_grad`
    accumulate.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


def _node(data: np.ndarray, parents: tuple[Tensor, ...],
          backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _coerce(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's original shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise ---------------------------------------------------------


def _broadcast_binary(a: Tensor, b, op_name: str, fwd, bwd):
    b = _coerce(b, a)
    try:
        data = fwd(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op_name}: incompatible shapes {a.shape} and {b.shape}") from exc

    def backward_fn(g):
        ga, gb = bwd(g, a.data, b.data)
        return (_unbroadcast(ga, a.shape) if ga is not None else None,
                _unbroadcast(gb, b.shape) if gb is not None else None)

    return _node(data, (a, b), backward_fn)


def add(a: Tensor, b) -> Tensor:
    return _broadcast_binary(a, b, "add", np.add, lambda g, x, y: (g, g))


def sub(a: Tensor, b) -> Tensor:
    return _broadcast_binary(a, b, "sub", np.subtract, lambda g, x, y: (g, -g))


def mul(a: Tensor, b) -> Tensor:
    return _broadcast_binary(a, b, "mul", np.multiply, lambda g, x, y: (g * y, g * x))


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)
    mask = x.data > 0

    def backward_fn(g):
        return (g * mask,)

    return _node(data, (x,), backward_fn)


# -- linear algebra -------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy-style stacked batching on leading axes."""
    b = _coerce(b, a)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}")
    data = np.matmul(a.data, b.data)

    def backward_fn(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _node(data, (a, b), backward_fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``."""
    if not -x.ndim <= axis < x.ndim:
        raise ContractError(f"softmax: axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    return _node(y, (x,), backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` over the last axis of ``x`` [..., k] as one node; the
    backward runs on the flattened [rows, k] inputs, so each gradient is one product."""
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: shapes {x.shape}, {w.shape} and {b.shape} disagree")
    k, n = w.shape
    # the stacked product keeps the bits of matmul plus add on every shape
    data = np.matmul(x.data, w.data) + b.data

    def backward_fn(g):
        g2 = g.reshape(-1, n)
        dx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        dw = x.data.reshape(-1, k).T @ g2 if w.requires_grad else None
        return dx, dw, g2.sum(axis=0)

    return _node(data, (x, w, b), backward_fn)


def attention(q: Tensor, k, v, heads: int, mask: np.ndarray | None = None) -> Tensor:
    """``softmax(q kᵀ / sqrt(dh) + mask) v`` per head over [B, L, d] streams as one node that
    owns the head split; ``k`` and ``v`` may be plain arrays that take no gradient."""
    k, v = _coerce(k, q), _coerce(v, q)
    if ((q.ndim, k.ndim) != (3, 3) or k.shape != v.shape or q.shape[::2] != k.shape[::2]
            or heads < 1 or q.shape[2] % heads):
        raise ShapeError(f"attention: shapes {q.shape}, {k.shape} and {v.shape} do not split into {heads} heads")

    def split(x):  # [B, L, d] -> [B, heads, L, dh], a view
        return x.reshape(x.shape[0], x.shape[1], heads, -1).transpose(0, 2, 1, 3)

    def merge(x):  # [B, heads, L, dh] -> [B, L, d]
        return x.transpose(0, 2, 1, 3).reshape(x.shape[0], x.shape[2], -1)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    # a float64 scale would promote float32 scores
    scale = np.asarray(1.0 / np.sqrt(qh.shape[-1]), dtype=q.data.dtype)
    scores = np.matmul(qh, np.swapaxes(kh, -1, -2)) * scale
    if mask is not None:
        scores = scores + mask.astype(scores.dtype)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        dp = np.matmul(split(g), np.swapaxes(vh, -1, -2))
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
        return (merge(np.matmul(ds, kh)) if q.requires_grad else None,
                merge(np.matmul(np.swapaxes(ds, -1, -2), qh)) if k.requires_grad else None,
                merge(np.matmul(np.swapaxes(p, -1, -2), split(g))) if v.requires_grad else None)

    return _node(merge(np.matmul(p, vh)), (q, k, v), backward_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xn = xc * inv
    data = xn * gain.data + bias.data

    def backward_fn(g):
        dxn = g * gain.data
        dx = inv * (dxn
                    - dxn.mean(axis=-1, keepdims=True)
                    - xn * (dxn * xn).mean(axis=-1, keepdims=True))
        return dx, (g * xn).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)

    return _node(data, (x, gain, bias), backward_fn)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` by integer id; gradients scatter-add back."""
    idx = np.asarray(ids)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ContractError(f"embedding_lookup: id out of range for table of {table.shape[0]} rows")
    data = table.data[idx]

    def backward_fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _node(data, (table,), backward_fn)


def cross_entropy_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean softmax cross entropy from raw logits [N, V] against integer targets [N]."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy_with_logits: logits must be 2-d, got {logits.shape}")
    t = np.asarray(targets)
    n, v = logits.shape
    if t.shape != (n,):
        raise ShapeError(f"cross_entropy_with_logits: targets shape {t.shape} does not match logits rows {n}")
    if t.size and (t.min() < 0 or t.max() >= v):
        raise ContractError("cross_entropy_with_logits: target id out of range")
    m = logits.data.max(axis=1, keepdims=True)
    e = np.exp(logits.data - m)
    z = e.sum(axis=1, keepdims=True)
    log_probs = logits.data - m - np.log(z)
    losses = -log_probs[np.arange(n), t]
    data = np.asarray(losses.sum() / n, dtype=logits.data.dtype)

    def backward_fn(g):
        p = e / z
        p[np.arange(n), t] -= 1.0
        return (p * (float(g) / n),)

    return _node(data, (logits,), backward_fn)


# -- shape manipulation ----------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = x.data.reshape(shape)

    def backward_fn(g):
        return (g.reshape(x.shape),)

    return _node(data, (x,), backward_fn)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = x.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward_fn(g):
        return (g.transpose(inverse),)

    return _node(data, (x,), backward_fn)


def sum_(x: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy() if np.ndim(g) == 0 else np.full(x.shape, g),)
        g2 = g
        if not keepdims:
            g2 = np.expand_dims(g, axis)
        return (np.broadcast_to(g2, x.shape),)

    return _node(np.asarray(data), (x,), backward_fn)


def mean_(x: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    count = x.size if axis is None else np.prod(np.take(x.shape, axis))
    return mul(sum_(x, axis=axis, keepdims=keepdims), 1.0 / count)


# -- stochastic / control ---------------------------------------------------


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout; identity when evaluating or when rate == 0."""
    if not training or rate <= 0.0:
        return x
    if rng is None:
        raise ContractError("dropout: rng required in training mode")
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout: rate must lie in [0, 1), got {rate}")
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    data = x.data * keep

    def backward_fn(g):
        return (g * keep,)

    return _node(data, (x,), backward_fn)


def substitute_forward(x: Tensor, value) -> Tensor:
    """Emit ``value`` verbatim while gradients flow to ``x`` unchanged.

    Equivalent to ``x + (value - x)`` with the difference held constant, but
    with a bit-exact forward: float cancellation in the literal composition
    would otherwise leave rounding residue on the substituted values.
    """
    data = np.asarray(value, dtype=x.data.dtype)
    if data.shape != x.shape:
        raise ShapeError(f"substitute_forward: shapes {x.shape} and {data.shape} disagree")

    def backward_fn(g):
        return (g,)

    return _node(data.copy(), (x,), backward_fn)


# -- backward pass -----------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    ``loss`` must be a scalar.  Calling backward again without resetting
    gradients accumulates into existing ``grad`` arrays.
    """
    if loss.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    # Iterative topological sort; graphs can be deep enough that recursion
    # would be fragile.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
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
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._parents:
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
        else:
            node.grad = g if node.grad is None else node.grad + g


# -- optimizer ----------------------------------------------------------------


class Adam:
    """Adam with bias correction over a fixed list of parameter tensors of one
    dtype.  Their data become views into one flat buffer, which each step
    updates in place; every parameter must hold a gradient when it runs."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3):
        self.params = list(params)
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) != 1:
            raise ContractError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        self.lr = lr
        self.t = 0
        self._flat = np.concatenate([p.data for p in self.params], axis=None)
        start = 0
        for p in self.params:
            p.data = self._flat[start:start + p.size].reshape(p.shape)
            start += p.size
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._g = np.empty_like(self._flat)
        self._tmp = np.empty_like(self._flat)

    def step(self) -> None:
        grads = [p.grad for p in self.params]
        missing = [i for i, g in enumerate(grads) if g is None]
        if missing:
            raise ContractError(f"Adam.step: parameters {missing} have no gradient")
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        g, tmp, m, v = self._g, self._tmp, self._m, self._v
        np.concatenate(grads, axis=None, out=g)
        # in place, in the order of b1*m + (1-b1)*g, b2*v + (1-b2)*(g*g) and
        # lr*m_hat / (sqrt(v_hat) + eps), so every value rounds as those
        # expressions do per parameter (tests/oracles.adam_reference)
        np.multiply(g, 1 - b1, out=tmp)
        m *= b1
        m += tmp
        g *= g
        g *= 1 - b2
        v *= b2
        v += g
        np.divide(m, 1 - b1 ** self.t, out=tmp)
        tmp *= self.lr
        np.divide(v, 1 - b2 ** self.t, out=g)
        np.sqrt(g, out=g)
        g += eps
        tmp /= g
        self._flat -= tmp

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
