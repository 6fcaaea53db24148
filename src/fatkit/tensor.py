"""Dense tensors with reverse-mode differentiation.

A small numpy-backed autograd engine: every operation records its parents
and a backward rule, `Tensor.backward()` walks the graph once in reverse
topological order, accumulates gradients into the leaves and frees each node
once its backward has run. Data is kept in float64 so the finite-difference
test suite can run at tight tolerances.

Also houses the Adam optimizer and the binary checkpoint format shared by
all trained models.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "GraphError",
    "ParameterError",
    "FormatError",
    "matmul",
    "concat",
    "reshape",
    "transpose",
    "relu",
    "tanh",
    "softplus",
    "softmax",
    "mixed_attention",
    "instance_norm",
    "conv2d",
    "deconv2d",
    "avg_pool2d",
    "grid_sample",
    "bilinear_sample",
    "tensor_sum",
    "tensor_mean",
    "l1_loss",
    "mse_loss",
    "xlogx",
    "pairwise_sqdist",
    "linear_solve",
    "AdamState",
    "adam_step",
    "zero_grads",
    "named_tensors",
    "save_tensors",
    "load_tensors",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ParameterError(ValueError):
    """An operation argument is outside its documented domain."""


class GraphError(RuntimeError):
    """The autograd graph contract was violated (e.g. non-scalar backward)."""


class FormatError(ValueError):
    """A serialized file does not match its documented byte layout."""


class _Node:
    """The graph side of an interior tensor: its backward closure, the nodes
    of its parents and its op name. It holds no value and no rebuild recipe
    (those live on the `Tensor`), so an interior value lives only while the
    caller or some backward closure holds its array or its recipe."""

    __slots__ = ("_parents", "_backward", "_op")
    requires_grad = True

    def __init__(self, parents, backward, op):
        self._parents = parents
        self._backward = backward
        self._op = op


class Tensor:
    """N-dimensional float64 array with an optional gradient buffer.

    Tensors are immutable after creation apart from `grad` (and in-place
    optimizer updates on leaves). An interior tensor's graph lives in a
    `_Node` apart from its value: `_parents` links nodes, a leaf standing as
    itself, and each backward closure holds only the arrays it reads. So an
    activation that no backward reads, such as a conv output that feeds
    `instance_norm`, is freed as soon as the caller drops it.

    An interior tensor may also carry `_rebuild`, a recipe that remakes its
    value, bit for bit, from its operands' kept values (see `_kept`). The
    recipe is on the tensor, not the node, so only the tensor and the
    backwards that read it through `_kept` hold it: when nothing reads the
    output, its operands are not pinned for its sake. A recipe pays when
    the op is cheap and its own backward holds its operands anyway: `relu`,
    `concat`, `reshape`, `transpose`, `matmul`, the scalar `scale` and
    `pairwise_sqdist` have one, so a backward that reads a ReLU output, a
    projection or a flattened map keeps no second copy of it. A caller that
    keeps such a tensor keeps its recipe's operands too.

    `_parents`, `_backward` and `_op` read through to the node; a leaf reads
    `()`, `None` and "leaf". Calling `backward()` on a scalar result
    accumulates d(result)/d(leaf) into every `requires_grad` leaf and frees
    the graph it walked, so each graph takes one backward. Backward calls
    over fresh graphs accumulate; `zero_grads` resets.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "_rebuild")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None
        self._rebuild = None

    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, backward):
        if self._node is None:
            raise GraphError("a leaf has no backward to replace")
        self._node._backward = backward

    @property
    def _op(self):
        return "leaf" if self._node is None else self._node._op

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{flag})"

    # -- graph management ---------------------------------------------------

    def detach(self) -> "Tensor":
        """Same values, no graph: gradients stop here."""
        return Tensor(self.data)

    def backward(self):
        """Populate leaf gradients of d(self)/d(leaf), and free the graph.

        `self` must hold a single element. Each graph node is visited exactly
        once, in reverse topological order; gradients reaching a leaf add into
        its `grad` buffer. Once a node's backward has run, the node drops its
        closure and its parents, so each array and recipe that only the graph
        held dies as soon as the walk is past it; a tensor the caller still
        holds keeps its value and its recipe. A second walk that reaches a
        freed node raises `GraphError`: to accumulate again, build the graph
        again.
        """
        if self.data.size != 1:
            raise GraphError(f"backward() needs a scalar, got shape {self.shape}")
        root = self._node or self
        topo = _toposort(root)
        flowing = {id(root): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            if id(node) in flowing:
                _walk(node, flowing.pop(id(node)), flowing)

    # -- operators ------------------------------------------------------------

    def __add__(self, other):
        return _add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return _from_op(-self.data, (self,), lambda g: (-g,), "neg")

    def __sub__(self, other):
        return _add(self, -other)

    def __rsub__(self, other):
        return _add(-self, other)

    def __mul__(self, other):
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise ShapeError("division only supports float divisors")
        return _mul(self, 1.0 / float(scalar))

    def __getitem__(self, key):
        """A basic index: ints, slices, None and Ellipsis, which pick each
        element at most once, so the backward adds the gradient into its
        slice. Any other key (an array, a list, a bool) is a ShapeError."""
        for part in key if isinstance(key, tuple) else (key,):
            basic = isinstance(part, (int, np.integer, slice)) and not isinstance(part, (bool, np.bool_))
            if not (basic or part is None or part is Ellipsis):
                raise ShapeError(f"a Tensor takes basic indices only (int, slice, None, ...), got {part!r}")

        def back(g, key=key, shape=self.data.shape):
            buf = np.zeros(shape)
            buf[key] += g
            return (buf,)

        return _from_op(np.array(self.data[key], copy=True), (self,), back, "getitem")

    def sum(self):
        return tensor_sum(self)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _from_op(data, parents, backward, op, rebuild=None) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple(p._node or p for p in parents), backward, op)
        out._rebuild = rebuild
    return out


def _walk(node, g, flowing):
    """One step of a backward walk: a leaf adds `g` into its `grad`; an
    interior node is freed, runs its backward and adds the parents'
    gradients into the walk's pending sums. Freeing the closure frees the
    recipes it read through `_kept`, unless another pending backward or the
    caller holds them too. A function of its own, so none of its locals
    keeps a closure, a parent or a gradient alive past the node."""
    back = node._backward
    if back is None:
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        return
    parents = node._parents
    node._backward, node._parents = _freed, ()
    for parent, pg in zip(parents, back(g)):
        if pg is None or not parent.requires_grad:
            continue
        held = flowing.get(id(parent))
        flowing[id(parent)] = pg if held is None else held + pg


def _freed(g):
    """The backward of a node that a walk has already run and freed."""
    raise GraphError("backward() reached a graph node that an earlier backward freed; build the graph again")


def _kept(t: Tensor):
    """A function that gives `t`'s value to a backward that reads it.

    It is `t`'s rebuild recipe when it has one, so the backward keeps no
    second copy of a value the recipe can remake, and the recipe lives only
    while `t` or such a backward does; otherwise it returns the array
    itself. Every backward that reads an operand's value holds it through
    this, and so does every recipe.
    """
    if t._rebuild is not None:
        return t._rebuild
    data = t.data
    return lambda: data


def _toposort(root):
    order, seen = [], set()
    stack = [(root, False)]
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
    return order


# -- elementwise and reductions --------------------------------------------


def _add(a: Tensor, other) -> Tensor:
    if not isinstance(other, Tensor):
        s = float(other)
        return _from_op(a.data + s, (a,), lambda g: (g,), "adds")
    if a.shape != other.shape:
        raise ShapeError(f"add needs matching shapes, got {a.shape} and {other.shape}")
    return _from_op(a.data + other.data, (a, other), lambda g: (g, g), "add")


def _mul(a: Tensor, other) -> Tensor:
    if not isinstance(other, Tensor):
        # the recipe scales the operand's kept value again: a projection
        # weight scaled per call is a parameter, held anyway
        s = float(other)
        av = _kept(a)
        return _from_op(a.data * s, (a,), lambda g: (g * s,), "scale", lambda: av() * s)
    if a.shape != other.shape:
        raise ShapeError(f"mul needs matching shapes, got {a.shape} and {other.shape}")
    # each operand is kept only for its partner's gradient, so a product by
    # a constant mask neither holds nor rebuilds the masked value
    av = _kept(a) if other.requires_grad else None
    bv = _kept(other) if a.requires_grad else None

    def back(g):
        return (None if bv is None else g * bv(), None if av is None else g * av())

    return _from_op(a.data * other.data, (a, other), back, "mul")


def _relu_body(x: np.ndarray) -> np.ndarray:
    # fmax maps NaN to 0; adding +0.0 turns the -0.0 that fmax keeps in its
    # non-vector tail into +0.0, so the output equals where(x > 0, x, 0)
    y = np.fmax(x, 0.0)
    y += 0.0
    return y


def relu(x: Tensor) -> Tensor:
    """max(x, 0), with NaN mapped to 0 and subgradient 0 at 0.

    The backward keeps the input, not the output: `x > 0` is the same mask
    as `y > 0`, NaN included. The output's rebuild recipe is the relu body
    on that input, so a backward that reads this output (a conv's weight
    gradient) rebuilds it and the output itself dies with its caller. After
    `instance_norm` the input is the normalized map the norm's backward
    holds anyway, so a conv-norm-ReLU block keeps one map, not two.
    """
    xv = _kept(x)

    def back(g):
        return (g * (xv() > 0),)  # subgradient at 0 is 0

    return _from_op(_relu_body(x.data), (x,), back, "relu", lambda: _relu_body(xv()))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return _from_op(y, (x,), lambda g: (g * (1.0 - y * y),), "tanh")


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) in overflow-safe form."""
    y = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))
    sig = 0.5 * (1.0 + np.tanh(0.5 * x.data))
    return _from_op(y, (x,), lambda g: (g * sig,), "softplus")


def _xlogx_parts(d: np.ndarray):
    """The mask of the entries of d above 1e-300, and d with 1 elsewhere."""
    pos = d > 1e-300
    return pos, np.where(pos, d, 1.0)


def xlogx(x: Tensor) -> Tensor:
    """Elementwise x*log(x) with the continuous extension 0 at x=0.

    Gradient is defined as 0 where x vanishes, matching the limit that
    arises when x is a squared distance of a point to itself. The backward
    keeps x through `_kept` and forms its mask again: a `pairwise_sqdist`
    output is rebuilt from the points its own backward holds.
    """
    pos, safe = _xlogx_parts(x.data)
    y = np.log(safe)  # 0 wherever safe was set to 1
    y *= safe
    xv = _kept(x)

    def back(g):
        pos, safe = _xlogx_parts(xv())
        return (g * np.where(pos, np.log(safe) + 1.0, 0.0),)

    return _from_op(y, (x,), back, "xlogx")


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of every element; scalar."""
    shape = x.shape
    return _from_op(np.sum(x.data), (x,), lambda g: (np.full(shape, g),), "sum")


def tensor_mean(x: Tensor) -> Tensor:
    """Mean of every element; scalar."""
    return tensor_sum(x) * (1.0 / x.size)


def _mean_loss(a, b, value, slope, op) -> Tensor:
    """Scalar `value(a - b)` whose gradient for `a` is `slope(a - b)`."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"{op} needs matching shapes, got {a.shape} and {b.shape}")
    diff = a.data - b.data
    s = slope(diff)
    return _from_op(value(diff), (a, b), lambda g: (g * s, -g * s), op)


def l1_loss(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute difference; scalar."""
    return _mean_loss(a, b, lambda d: np.mean(np.abs(d)), lambda d: np.sign(d) / d.size, "l1")


def mse_loss(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared difference; scalar."""
    return _mean_loss(a, b, lambda d: np.mean(d * d), lambda d: 2.0 * d / d.size, "mse")


# -- shape plumbing ---------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    """x's values in a new shape. The output's rebuild recipe reshapes x's
    kept value again, so a backward that reads the result keeps what x's
    own readers keep, not a view that pins x's array."""
    old = x.shape
    xv = _kept(x)
    return _from_op(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),), "reshape",
                    lambda: xv().reshape(shape))


def transpose(x: Tensor, axes=None) -> Tensor:
    """x with its axes permuted, as a contiguous copy. The output's rebuild
    recipe permutes x's kept value again, so a backward that reads the
    result (a FAT block's `mul` and query projection read the flattened
    features) keeps no copy beside the map it came from."""
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    inv = tuple(np.argsort(axes))
    xv = _kept(x)
    return _from_op(np.transpose(x.data, axes), (x,), lambda g: (np.transpose(g, inv),), "transpose",
                    lambda: np.ascontiguousarray(np.transpose(xv(), axes)))


def concat(parts, axis=0) -> Tensor:
    """The parts joined along `axis`.

    The output's rebuild recipe joins the parts' kept values again, so a
    backward that reads the result (a `matmul` by a projection, a
    `linear_solve` of a TPS system) keeps the parts, not a second copy of
    them side by side. The parts are often held anyway: a FAT block's query
    features by `color_transform`'s product, its landmark embedding by
    every call of that face.
    """
    parts = [_as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]
    kept = [_kept(p) for p in parts]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

    return _from_op(data, tuple(parts), back, "concat", lambda: np.concatenate([v() for v in kept], axis=axis))


# -- linear algebra ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, plain (M,K)@(K,N) or batched (B,M,K)@(B,K,N).

    The backward holds both operands' kept values, and the output's rebuild
    recipe multiplies them again, so a backward that reads the product (an
    attention op its query and key projections) keeps no copy of it.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ShapeError(f"matmul needs 2D or 3D pairs, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2] or (a.ndim == 3 and a.shape[0] != b.shape[0]):
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    av, bv = _kept(a), _kept(b)

    def back(g):
        return (g @ bv().swapaxes(-1, -2), av().swapaxes(-1, -2) @ g)

    return _from_op(a.data @ b.data, (a, b), back, "matmul", lambda: av() @ bv())


def linear_solve(a: Tensor, b: Tensor) -> Tensor:
    """Solve a @ x = b for x; differentiable w.r.t. both operands."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim != 2 or b.shape[0] != a.shape[0]:
        raise ShapeError(f"solve needs (n,n) and (n,m), got {a.shape} and {b.shape}")
    x = np.linalg.solve(a.data, b.data)
    av = _kept(a)

    def back(g):
        gb = np.linalg.solve(av().T, g)
        return (-gb @ x.T, gb)

    return _from_op(x, (a, b), back, "solve")


def _sqdist_body(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i - b_j|^2, summed axis by axis, so no (N,K,D) difference array is
    built: the one body of `pairwise_sqdist` and its recipe."""
    y = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        d = np.subtract.outer(a[:, k], b[:, k])
        d *= d
        y += d
    return y


def pairwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """Squared Euclidean distances between row sets: out[i,j] = |a_i - b_j|^2.

    The backward holds both row sets, and the output's rebuild recipe
    measures their distances again, so `xlogx` of the distances (a TPS
    kernel) keeps the points, not an (N, M) array.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"sqdist needs matching row widths, got {a.shape} and {b.shape}")
    av, bv = _kept(a), _kept(b)

    def back(g):
        # sum_j g_ij (a_i - b_j) = a_i sum_j g_ij - (g @ b)_i, and likewise for b
        ad, bd = av(), bv()
        ga = 2.0 * (g.sum(axis=1)[:, None] * ad - g @ bd)
        gb = -2.0 * (g.T @ ad - g.sum(axis=0)[:, None] * bd)
        return (ga, gb)

    return _from_op(_sqdist_body(a.data, b.data), (a, b), back, "sqdist", lambda: _sqdist_body(av(), bv()))


def _softmax_body(x: np.ndarray, axis: int, out=None) -> np.ndarray:
    """Max-subtracted softmax along `axis`: the one body of `softmax` and
    `mixed_attention`. The result goes to `out`, which may be `x` itself,
    or to a new array."""
    y = np.subtract(x, np.max(x, axis=axis, keepdims=True), out=out)
    np.exp(y, out=y)
    y /= np.sum(y, axis=axis, keepdims=True)
    return y


def _softmax_grad(g: np.ndarray, y: np.ndarray, axis: int, out=None, rows=None) -> np.ndarray:
    """The input gradient of a softmax with output y along `axis`, written
    to `out` (which may be `g` itself) or to a new array.

    With `rows`, the softmax runs along the last axis of 3-D arrays, and the
    product g * y is formed for that many rows of axis 1 at a time: each row
    is reduced alone either way, so the bits are the same, and the scratch
    is a slice of g, not a copy of it."""
    if rows is None:
        inner = np.sum(g * y, axis=axis, keepdims=True)
    else:
        inner = np.empty(g.shape[:2] + (1,))
        for j in range(0, g.shape[1], rows):
            np.sum(g[:, j : j + rows] * y[:, j : j + rows], axis=2, keepdims=True, out=inner[:, j : j + rows])
    gs = np.subtract(g, inner, out=out)
    gs *= y
    return gs


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax; slices along `axis` sum to 1."""
    y = _softmax_body(x.data, axis)
    return _from_op(y, (x,), lambda g: (_softmax_grad(g, y, axis),), "softmax")


ATTENTION_BLOCK_BYTES = 1 << 21  # bytes of one head's float64 scores in a block of `mixed_attention`


def mixed_attention(q: Tensor, keys: Tensor, w_mix: Tensor, values: Tensor) -> Tensor:
    """k-head scaled dot-product attention, heads mixed by softmax(w_mix),
    times the values.

    q: (M, k*dk) and keys: (M', k*dk) hold each head's query and key rows
    side by side, the queries already scaled; w_mix: (k,); values: (M', dv),
    with M' >= 1. The attention is the (M, M') matrix A = sum_h
    softmax(w_mix)_h * softmax_rows(q_h @ keys_h.T), row-stochastic like each
    head. One batched GEMM and one max-subtracted softmax, in place on the
    fresh scores, give all k heads' attention at once. The op returns
    A @ values, as a Transformer moves its values; the identity as values
    gives A itself.

    The op walks the query rows in blocks, in the forward and in the
    backward, as in memory-efficient attention (Rabe and Staats, 2021). A
    block has as many rows as fit one head's (rows, M') scores in
    `ATTENTION_BLOCK_BYTES`, so its scratch is bounded in bytes, whatever
    the image size: the forward holds the block's (k, rows, M') scores and
    its rows of A, the backward the block's per-head attention and its
    gradient, which takes gA in head 0's slot, and a softmax gradient that
    reduces an eighth of the block's rows at a time. The backward writes
    each block's rows of the query gradient and sums the key, value and mix
    gradients over the blocks in row order.

    The node keeps q, keys and values through `_kept`, and the k mix
    weights, never the per-head scores or A: the backward recomputes each
    block's scores from q and keys and rebuilds its rows of A from them, so
    the value product shares the recompute, as in FlashAttention (Dao et
    al., NeurIPS 2022). A call keeps at most (M + M') * k*dk floats and the
    values, not k*M*M'; a projection's `matmul` recipe keeps only its
    operands, so a FAT block's q and keys are rebuilt too. With M at most
    one block (1024 rows against the M' = 256 keys of every 64 px call),
    forward and gradients equal, bit for bit, those of the same attention
    composed from `matmul`, `softmax`, `reshape` and `transpose`, with a
    `matmul` by the values; with more blocks only the order of the sums
    over blocks differs.
    """
    q, keys, w_mix, values = _as_tensor(q), _as_tensor(keys), _as_tensor(w_mix), _as_tensor(values)
    if q.ndim != 2 or keys.ndim != 2 or w_mix.ndim != 1 or not w_mix.size or q.shape[1] != keys.shape[1] \
            or q.shape[1] % w_mix.size:
        raise ShapeError(f"attention needs (M,k*dk), (M',k*dk) and (k,), got {q.shape}, {keys.shape}, {w_mix.shape}")
    if values.ndim != 2 or values.shape[0] != keys.shape[0]:
        raise ShapeError(f"attention values need (M',dv) rows for keys {keys.shape}, got {values.shape}")
    if not keys.shape[0]:
        raise ShapeError(f"attention needs at least one key row, got keys {keys.shape} for queries {q.shape}")
    k = w_mix.shape[0]
    m, mp, dk = q.shape[0], keys.shape[0], q.shape[1] // k
    block = max(1, ATTENTION_BLOCK_BYTES // (8 * mp))

    def key_heads(kd):
        return np.ascontiguousarray(kd.reshape(mp, k, dk).transpose(1, 2, 0))  # (k, dk, M')

    def heads(qd, rh, i):
        """The (k, b, dk) query heads of the block at row i and its (k, b, M')
        per-head attention."""
        qb = qd[i : i + block]
        qh = np.ascontiguousarray(qb.reshape(qb.shape[0], k, dk).transpose(1, 0, 2))
        s = qh @ rh
        return qh, _softmax_body(s, 2, out=s)

    def mixed(hb):
        return (mix @ hb.reshape(k, -1)).reshape(hb.shape[1], mp)

    mix = _softmax_body(w_mix.data, 0).reshape(1, k)
    rh = key_heads(keys.data)
    out = np.empty((m, values.shape[1]))
    for i in range(0, m, block):
        np.matmul(mixed(heads(q.data, rh, i)[1]), values.data, out=out[i : i + block])
    qv, kv, vv = _kept(q), _kept(keys), _kept(values)

    def back(g):
        qd, vd, rh = qv(), vv(), key_heads(kv())
        gq = np.empty((m, k, dk))

        def block_grads(i):
            """Write the block's query gradient rows; return its key, value
            and mix gradients."""
            qh, hb = heads(qd, rh, i)
            gb = g[i : i + block]
            gvalues = mixed(hb).T @ gb
            # gA lands in head 0's slot of the score gradient, and each head
            # scales it into its own slot, head 0 last (K=1: a product, not a
            # GEMM), so the block holds two arrays of its scores' size
            gs = np.empty_like(hb)
            np.matmul(gb, vd.T, out=gs[0])
            gmix = gs[0].reshape(1, -1) @ hb.reshape(k, -1).T
            for h in range(k - 1, -1, -1):
                np.multiply(mix[0, h], gs[0], out=gs[h])
            _softmax_grad(gs, hb, 2, out=gs, rows=max(1, hb.shape[1] // 8))
            del hb
            gq[i : i + block] = np.transpose(gs @ rh.swapaxes(-1, -2), (1, 0, 2))
            return qh.swapaxes(-1, -2) @ gs, gvalues, gmix

        # the first block starts the sums, so M = 0 gives zero gradients; the
        # key gradient is summed per head and laid out as keys once
        sums = block_grads(0)
        for i in range(block, m, block):
            for total, part in zip(sums, block_grads(i)):
                total += part
        gkeys, gvalues, gmix = sums
        gkeys = np.transpose(gkeys, (2, 0, 1)).reshape(mp, k * dk)
        return (gq.reshape(m, k * dk), gkeys, _softmax_grad(gmix.reshape(k), mix.reshape(k), 0), gvalues)

    return _from_op(out, (q, keys, w_mix, values), back, "attention")


# -- spatial operators -------------------------------------------------------


def _im2col(x: np.ndarray, k: int, stride: int):
    """(C,H,W) -> channel-major receptive-field matrix (C*k*k, Ho*Wo).

    Row c*k*k + di*k + dj holds input channel c at kernel tap (di, dj) for
    every output position, so `w.reshape(C_out, C*k*k) @ cols` is the
    convolution with no transposed copy (Chellapilla et al., 2006). Each of
    the k*k strided taps of the zero-padded input is copied once.
    """
    c, h, w = x.shape
    pad = (k - 1) // 2
    ho = -(-h // stride)
    wo = -(-w // stride)
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad))
    xp[:, pad : pad + h, pad : pad + w] = x
    cols = np.empty((c, k, k, ho, wo))
    for di in range(k):
        for dj in range(k):
            cols[:, di, dj] = xp[:, di : di + stride * ho : stride, dj : dj + stride * wo : stride]
    return cols.reshape(c * k * k, ho * wo), ho, wo


def _col2im(cols: np.ndarray, xshape, k: int, stride: int) -> np.ndarray:
    """Adjoint of `_im2col`: scatter a (C*k*k, Ho*Wo) matrix back onto the image.

    It serves the forward of `_transposed` (`deconv2d`, and a narrowing
    stride-1 `conv2d`) and the `conv2d` input gradient at stride 2 or where
    a stride-1 convolution widens its channels. The result owns its memory.
    """
    c, h, w = xshape
    pad = (k - 1) // 2
    ho = -(-h // stride)
    wo = -(-w // stride)
    blocks = cols.reshape(c, k, k, ho, wo)
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad))
    for di in range(k):
        for dj in range(k):
            xp[:, di : di + stride * ho : stride, dj : dj + stride * wo : stride] += blocks[:, di, dj]
    return np.ascontiguousarray(xp[:, pad : pad + h, pad : pad + w])


def _check_conv_args(x, w, b, stride, transposed=False):
    """Checks shared by conv2d and deconv2d; b is None or one entry per output channel."""
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    if x.ndim != 3 or w.ndim != 4:
        raise ShapeError(f"conv expects (C,H,W) and (O,I,k,k), got {x.shape}, {w.shape}")
    if w.shape[2] != w.shape[3] or w.shape[2] % 2 == 0:
        raise ParameterError(f"kernel must be square with odd extent, got {w.shape[2:]}")
    c_in, c_out = (w.shape[0], w.shape[1]) if transposed else (w.shape[1], w.shape[0])
    if x.shape[0] != c_in or (b is not None and b.shape != (c_out,)):
        raise ShapeError(f"conv channels disagree: x {x.shape}, w {w.shape}, b {getattr(b, 'shape', None)}")


def _transposed(x: np.ndarray, wmat: np.ndarray, oshape, k: int, stride: int) -> np.ndarray:
    """Transposed convolution of a (C_a,h,w) array under a (C_a, C_b*k*k)
    kernel matrix: the `_col2im` scatter of `wmat.T @ x` onto `oshape`."""
    return _col2im(wmat.T @ x.reshape(x.shape[0], -1), oshape, k, stride)


def _transposed_grads(g, xshape, x, wmat: np.ndarray, k: int, stride: int, need_x):
    """Input and kernel gradients of `_transposed` for an input of shape
    `xshape`, (C_a,h,w) and (C_a,C_b,k,k), both from one im2col matrix of the
    output gradient g; None where not needed. The input array `x` is read
    only for the kernel gradient, and is None when that is not needed."""
    gcols = _im2col(g, k, stride)[0]
    gx = (wmat @ gcols).reshape(xshape) if need_x else None
    gw = None if x is None else (x.reshape(xshape[0], -1) @ gcols.T).reshape(xshape[0], -1, k, k)
    return gx, gw


def _rotated(w: np.ndarray) -> np.ndarray:
    """(C_out,C_in,k,k) kernel -> (C_in, C_out*k*k): rotated by 180 degrees and
    channel-swapped, the kernel under which a stride-1 `conv2d` is `_transposed`."""
    co, ci, k, _ = w.shape
    return w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ci, co * k * k)


def conv2d(x: Tensor, w: Tensor, b: Tensor = None, stride: int = 1) -> Tensor:
    """Cross-correlation with same padding; output is ceil(H/stride) per side.

    x: (C_in,H,W), w: (C_out,C_in,k,k), b: (C_out,) or None for no bias. The
    backward returns (gx, gw, gb) and builds only the gradients of operands
    that require one; the others, and gb with no bias, are None.

    A stride-1 convolution is the transposed convolution of x under the
    rotated, channel-swapped kernel, so it builds the im2col matrix of its
    narrower side only. When it narrows (C_out < C_in), its forward is that
    transposed convolution, a `_col2im` scatter; otherwise it is the weight
    matrix times the im2col matrix of x. With C_out <= C_in the backward
    takes both gradients from one im2col matrix of the output gradient; when
    it widens, and at larger strides, it rebuilds the im2col matrix of x for
    the weight gradient and scatters the input gradient with `_col2im`. The
    graph keeps no column matrix between forward and backward, so `x` must
    not be written in place until the backward has run. The backward keeps
    `x` only when it builds the weight gradient, and then through `_kept`:
    a ReLU output is kept as its recipe and rebuilt from the ReLU's input.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    b = None if b is None else _as_tensor(b)
    _check_conv_args(x.data, w.data, b, stride)
    co, ci, k, _ = w.shape
    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b is not None and b.requires_grad
    xshape, wshape, wd = x.shape, w.shape, w.data
    if stride == 1 and co < ci:
        out = _transposed(x.data, _rotated(wd), (co,) + xshape[1:], k, 1)
    else:
        cols, ho, wo = _im2col(x.data, k, stride)
        out = (wd.reshape(co, ci * k * k) @ cols).reshape(co, ho, wo)
    if b is not None:
        out += b.data[:, None, None]
    xv = _kept(x) if need_w else None

    def back(g):
        gmat = g.reshape(co, -1)
        if stride == 1 and co <= ci:
            gx, grot = _transposed_grads(g, xshape, None if xv is None else xv(), _rotated(wd), k, 1, need_x)
            gw = None if grot is None else np.ascontiguousarray(grot.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
        else:
            # the weight gradient first, so the rebuilt x and its columns are
            # freed before the input gradient's columns and scatter
            gw = (gmat @ _im2col(xv(), k, stride)[0].T).reshape(wshape) if need_w else None
            gx = _col2im(wd.reshape(co, ci * k * k).T @ gmat, xshape, k, stride) if need_x else None
        return (gx, gw, gmat.sum(axis=1) if need_b else None)

    return _from_op(out, (x, w) if b is None else (x, w, b), back, "conv2d")


def deconv2d(x: Tensor, w: Tensor, b: Tensor = None, stride: int = 1) -> Tensor:
    """Transposed convolution: the adjoint of `conv2d` under the shared kernel.

    x: (C_a,h,w), w: (C_a,C_b,k,k), b: (C_b,) or None for no bias; output
    (C_b, stride*h, stride*w), so <conv2d(u; w), x> == <u, deconv2d(x; w)>
    holds exactly without biases. The forward is a `_col2im` scatter; the
    backward takes both gradients from one im2col matrix of the output
    gradient. It keeps `x` only for the weight gradient, through `_kept`, so
    a ReLU output is rebuilt from the ReLU's input, as in `conv2d`.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    b = None if b is None else _as_tensor(b)
    _check_conv_args(x.data, w.data, b, stride, transposed=True)
    if stride not in (1, 2):
        raise ParameterError(f"deconv stride must be 1 or 2, got {stride}")
    ca, cb, k, _ = w.shape
    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b is not None and b.requires_grad
    wmat = w.data.reshape(ca, cb * k * k)
    xshape = x.shape
    out = _transposed(x.data, wmat, (cb, stride * xshape[1], stride * xshape[2]), k, stride)
    if b is not None:
        out += b.data[:, None, None]
    xv = _kept(x) if need_w else None

    def back(g):
        gx, gw = _transposed_grads(g, xshape, None if xv is None else xv(), wmat, k, stride, need_x)
        return (gx, gw, g.sum(axis=(1, 2)) if need_b else None)

    return _from_op(out, (x, w) if b is None else (x, w, b), back, "deconv2d")


def instance_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance per channel over the spatial extent."""
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if x.ndim != 3:
        raise ShapeError(f"instance_norm expects (C,H,W), got {x.shape}")
    n = x.shape[1] * x.shape[2]
    y = x.data - x.data.mean(axis=(1, 2), keepdims=True)
    var = np.einsum("ijk,ijk->i", y, y) / n
    inv = (1.0 / np.sqrt(var + eps))[:, None, None]
    y *= inv

    def back(g):
        gm = g.mean(axis=(1, 2), keepdims=True)
        gym = (np.einsum("ijk,ijk->i", g, y) / n)[:, None, None]
        gx = g - gm
        gx -= y * gym
        gx *= inv
        return (gx,)

    return _from_op(y, (x,), back, "instance_norm")


def avg_pool2d(x: Tensor, stride: int) -> Tensor:
    """Non-overlapping stride x stride mean pooling; extents must divide."""
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    c, h, w = x.shape
    if h % stride or w % stride:
        raise ShapeError(f"pool stride {stride} must divide spatial extents {h}x{w}")
    ho, wo = h // stride, w // stride
    y = x.data.reshape(c, ho, stride, wo, stride).mean(axis=(2, 4))
    inv = 1.0 / (stride * stride)

    def back(g):
        up = np.repeat(np.repeat(g, stride, axis=1), stride, axis=2)
        return (up * inv,)

    return _from_op(y, (x,), back, "avg_pool")


def _axis_taps(coord: np.ndarray, n: int):
    """Normalized [-1,1] coordinates along an axis of n pixel centers ->
    the two clamped neighbour indices and the fractional weight of the second."""
    pos = (coord + 1.0) * (n / 2.0) - 0.5
    lo = np.floor(pos)
    i = lo.astype(np.int64)
    return np.clip(i, 0, n - 1), np.clip(i + 1, 0, n - 1), pos - lo


def _bilinear(image: np.ndarray, grid: np.ndarray):
    """The one bilinear kernel behind `bilinear_sample` and `grid_sample`.

    image: (C,H,W); grid: (h',w',2) with (x,y) in [-1,1] addressing pixel
    centers. Returns the sampled (C,h',w') array together with the four
    corners' clamped flat indices `y*W + x` into the (C, H*W) image
    (top-left, top-right, bottom-left, bottom-right) and the fractional
    weights (fx, fy), which the backward of `grid_sample` reuses.
    """
    c, h, w = image.shape
    x0i, x1i, fx = _axis_taps(grid[..., 0], w)
    y0i, y1i, fy = _axis_taps(grid[..., 1], h)
    r0, r1 = y0i * w, y1i * w
    flat_idx = (r0 + x0i, r0 + x1i, r1 + x0i, r1 + x1i)
    flat = image.reshape(c, h * w)
    v00, v01, v10, v11 = (np.take(flat, i, axis=1) for i in flat_idx)
    top = v00 * (1.0 - fx) + v01 * fx
    bot = v10 * (1.0 - fx) + v11 * fx
    return top * (1.0 - fy) + bot * fy, flat_idx, fx, fy


def bilinear_sample(image: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Plain-array bilinear lookup with border clamping.

    image: (C,H,W); grid: (h',w',2) with (x,y) in [-1,1] addressing pixel
    centers. The differentiable `grid_sample` shares this kernel, so both
    paths agree bit for bit.
    """
    return _bilinear(image, grid)[0]


def grid_sample(x: Tensor, grid: Tensor) -> Tensor:
    """Bilinear sampling of (C,H,W) at an (h',w',2) normalized grid.

    Out-of-range coordinates clamp to the border. Differentiable in both the
    image and the grid; where both interpolation neighbours clamp to the same
    border pixel the grid gradient is exactly zero. The backward keeps the
    input through `_kept`, the four corner indices and the fractional
    weights, and gathers the four (C, h'*w') corner arrays again with the
    forward's `np.take`, so the node holds no copy of the input's values.
    """
    x, grid = _as_tensor(x), _as_tensor(grid)
    if x.ndim != 3 or grid.ndim != 3 or grid.shape[-1] != 2:
        raise ShapeError(f"grid_sample expects (C,H,W) and (h,w,2), got {x.shape}, {grid.shape}")
    c, h, w = x.shape
    gshape = grid.shape
    out, flat_idx, fx, fy = _bilinear(x.data, grid.data)
    xv = _kept(x)

    def back(g):
        cx, cy = 1.0 - fx, 1.0 - fy
        # corner-major, then channel, then position: each bin sums its terms
        # in the order of four sequential np.add.at passes, one per corner;
        # each corner writes its slot, with no per-corner temporaries
        weights = np.empty((4,) + g.shape)
        bins = np.empty((4,) + g.shape, dtype=np.int64)
        rows = np.arange(0, c * h * w, h * w)[:, None, None]
        for slot, (wy, wx) in enumerate(((cy, cx), (cy, fx), (fy, cx), (fy, fx))):
            np.multiply(g, wy * wx, out=weights[slot])
            np.add(rows, flat_idx[slot], out=bins[slot])
        gimg = np.bincount(bins.ravel(), weights.ravel(), minlength=c * h * w).reshape(c, h, w)
        del weights, bins
        flat = xv().reshape(c, h * w)
        v00, v01, v10, v11 = (np.take(flat, i, axis=1) for i in flat_idx)
        dpx = ((v01 - v00) * cy + (v11 - v10) * fy) * g
        dpy = ((v10 - v00) * cx + (v11 - v01) * fx) * g
        ggrid = np.empty(gshape)
        ggrid[..., 0] = dpx.sum(axis=0) * (w / 2.0)
        ggrid[..., 1] = dpy.sum(axis=0) * (h / 2.0)
        return (gimg, ggrid)

    return _from_op(out, (x, grid), back, "grid_sample")


# -- optimizer ----------------------------------------------------------------


ADAM_BETA1 = 0.5
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """First/second moment buffers plus step counter for a parameter list."""

    def __init__(self, params):
        self.params = list(params)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


def adam_step(state: AdamState, lr: float):
    """One bias-corrected Adam update. A parameter without a grad is updated
    as if its gradient were zero: its moments decay and it keeps moving."""
    if not np.isfinite(lr) or lr <= 0:
        raise ParameterError(f"learning rate must be a finite positive number, got {lr}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for p, m, v in zip(state.params, state.m, state.v):
        g = p.grad
        if g is None:
            g = 0.0
        elif g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def zero_grads(params):
    for p in params:
        p.grad = None


# -- checkpoint format ---------------------------------------------------------

_MAGIC = b"FATW"
_VERSION = 1


def named_tensors(parts) -> dict:
    """Checkpoint names '<part>.<tensor>' over (part, component) pairs, where
    `component.tensors()` maps names to tensors; the order of the pairs is the
    checkpoint layout."""
    return {f"{part}.{k}": v for part, comp in parts for k, v in comp.tensors().items()}


def save_tensors(path, named: dict):
    """Write name->tensor pairs in the binary checkpoint layout.

    Layout: magic "FATW", version u16, count u32, then per tensor
    name-length u16 + UTF-8 name, rank u8, dims u32 little-endian,
    data as float32 little-endian. float32 values round-trip bit-exactly;
    float64 parameters are rounded to float32.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HI", _VERSION, len(named)))
        for name, value in named.items():
            arr = value.data if isinstance(value, Tensor) else np.asarray(value)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_tensors(path) -> dict:
    """Read a checkpoint back as name -> float32 array, preserving order.
    A malformed file raises FormatError naming the path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic at byte 0: {blob[:4]!r}")
    if len(blob) < 10:
        raise FormatError(f"{path}: truncated checkpoint header at byte {len(blob)}")
    version, count = struct.unpack_from("<HI", blob, 4)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version} at byte 4")
    offset = 10
    out = {}
    try:
        for _ in range(count):
            start = offset
            (nlen,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            if offset + nlen > len(blob):
                raise FormatError(f"{path}: truncated tensor name at byte {len(blob)} ({nlen} bytes from {offset})")
            name = blob[offset : offset + nlen].decode("utf-8")
            if name in out:
                raise FormatError(f"{path}: repeated tensor name {name!r} in the record at byte {start}")
            offset += nlen
            (rank,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            dims = struct.unpack_from(f"<{rank}I", blob, offset)
            offset += 4 * rank
            n = int(np.prod(dims, dtype=np.int64))
            arr = np.frombuffer(blob, dtype="<f4", count=n, offset=offset).reshape(dims)
            offset += 4 * n
            out[name] = arr.copy()
    except FormatError:
        raise
    except (struct.error, ValueError) as exc:
        raise FormatError(f"{path}: malformed checkpoint record at byte {offset}: {exc}") from exc
    if offset != len(blob):
        raise FormatError(f"{path}: trailing bytes after checkpoint payload at byte {offset}")
    return out
