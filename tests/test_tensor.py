"""Tensor engine: forward semantics, gradients, optimizer, checkpoint format."""

import struct

import numpy as np
import pytest

import fatkit.tensor
from conftest import (
    base_buffer, check_grads, closure_values, composed_attention, finite_diff_grads, leaf, node_held_arrays,
)
from fatkit.tensor import (
    AdamState,
    FormatError,
    GraphError,
    ParameterError,
    ShapeError,
    Tensor,
    adam_step,
    avg_pool2d,
    bilinear_sample,
    concat,
    conv2d,
    deconv2d,
    grid_sample,
    instance_norm,
    l1_loss,
    linear_solve,
    load_tensors,
    matmul,
    mixed_attention,
    mse_loss,
    pairwise_sqdist,
    reshape,
    relu,
    save_tensors,
    softmax,
    softplus,
    tanh,
    tensor_mean,
    tensor_sum,
    transpose,
    xlogx,
    zero_grads,
)


# -- matmul -------------------------------------------------------------------


def test_matmul_identity():
    b = Tensor(np.arange(9.0).reshape(3, 3))
    out = matmul(Tensor(np.eye(3)), b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_hand_expanded():
    # checked against a scalar triple loop
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0], [1.0]])
    ref = np.zeros((2, 1))
    for i in range(2):
        for j in range(1):
            for k in range(2):
                ref[i, j] += a[i, k] * b[k, j]
    out = matmul(Tensor(a), Tensor(b))
    np.testing.assert_array_equal(out.data, ref)
    np.testing.assert_array_equal(ref, [[2.0], [4.0]])


def test_matmul_grad_is_transpose_broadcast(rng):
    a = leaf(rng, 3, 4)
    b = Tensor(rng.normal(size=(4, 2)))
    out = matmul(a, b).sum()
    out.backward()
    # d sum(A@B) / dA = B^T broadcast along rows; cross-check vs central differences
    np.testing.assert_allclose(a.grad, np.tile(b.data.sum(axis=1), (3, 1)), rtol=1e-12)
    fd = finite_diff_grads(lambda t: matmul(t, b).sum(), [a])[0]
    np.testing.assert_allclose(a.grad, fd, rtol=1e-6, atol=1e-8)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_batched(rng):
    a = rng.normal(size=(4, 3, 5))
    b = rng.normal(size=(4, 5, 2))
    out = matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, a @ b)


# -- conv ----------------------------------------------------------------------


def test_conv2d_1x1_identity(rng):
    x = Tensor(rng.uniform(size=(1, 6, 6)))
    w = Tensor(np.ones((1, 1, 1, 1)))
    out = conv2d(x, w, Tensor(np.zeros(1)), stride=1)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_box_kernel_counts_neighbours():
    x = Tensor(np.ones((1, 5, 5)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, w, Tensor(np.zeros(1)), stride=1).data[0]
    assert out[2, 2] == 9.0
    assert out[0, 0] == 4.0
    assert out[0, 2] == 6.0


def test_conv2d_direct_summation_oracle(rng):
    x = rng.normal(size=(2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1).data
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    for o in range(3):
        for i in range(5):
            for j in range(5):
                acc = b[o]
                for c in range(2):
                    for di in range(3):
                        for dj in range(3):
                            acc += w[o, c, di, dj] * xp[c, i + di, j + dj]
                assert abs(out[o, i, j] - acc) < 1e-12


def test_conv2d_stride_2_output_shape(rng):
    x = Tensor(rng.normal(size=(1, 8, 8)))
    w = Tensor(rng.normal(size=(4, 1, 3, 3)))
    out = conv2d(x, w, Tensor(np.zeros(4)), stride=2)
    assert out.shape == (4, 4, 4)
    # odd extent: ceil(7/2) = 4
    assert conv2d(Tensor(np.zeros((1, 7, 7))), w, Tensor(np.zeros(4)), stride=2).shape == (4, 4, 4)


def test_conv2d_bad_stride():
    with pytest.raises(ParameterError):
        conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros(1)), stride=0)


def test_deconv2d_shape_and_bias(rng):
    x = Tensor(rng.normal(size=(3, 4, 4)))
    w = Tensor(rng.normal(size=(3, 2, 3, 3)))
    b = Tensor(np.array([0.5, -0.25]))
    out = deconv2d(x, w, b, stride=2)
    assert out.shape == (2, 8, 8)
    zero = deconv2d(Tensor(np.zeros((3, 4, 4))), w, b, stride=2)
    np.testing.assert_allclose(zero.data, np.broadcast_to(b.data[:, None, None], (2, 8, 8)))


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_deconv_adjoint_identity(rng, stride):
    # <conv(x; w), y> == <x, deconv(y; w)> with the shared zero-bias kernel
    for _ in range(5):
        x = rng.normal(size=(2, 6, 6))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        ho = -(-6 // stride)
        y = rng.normal(size=(3, ho, ho))
        zero3, zero2 = Tensor(np.zeros(3)), Tensor(np.zeros(2))
        lhs = float(np.sum(conv2d(Tensor(x), w, zero3, stride).data * y))
        rhs = float(np.sum(x * deconv2d(Tensor(y), w, zero2, stride).data))
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("shape", [(2, 5, 7), (3, 8, 8)])
def test_im2col_channel_major_layout_and_adjoint(rng, k, stride, shape):
    from fatkit.tensor import _col2im, _im2col

    x = rng.normal(size=shape)
    cols, ho, wo = _im2col(x, k, stride)
    c, h, w = shape
    assert (ho, wo) == (-(-h // stride), -(-w // stride))
    assert cols.shape == (c * k * k, ho * wo)
    # row c*k*k + di*k + dj, column i*wo + j: channel c at tap (di, dj) of output (i, j)
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    taps = cols.reshape(c, k, k, ho, wo)
    for di in range(k):
        for dj in range(k):
            np.testing.assert_array_equal(
                taps[:, di, dj], xp[:, di : di + stride * ho : stride, dj : dj + stride * wo : stride]
            )
    # _col2im is the adjoint: <im2col(x), C> == <x, col2im(C)>
    for _ in range(3):
        u = rng.normal(size=shape)
        m = rng.normal(size=cols.shape)
        lhs = float(np.sum(_im2col(u, k, stride)[0] * m))
        rhs = float(np.sum(u * _col2im(m, shape, k, stride)))
        assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("channels", [(2, 3), (3, 2)])
@pytest.mark.parametrize("shape", [(5, 7), (8, 8)])
def test_conv2d_stride1_input_gradient_gather_matches_col2im(rng, k, channels, shape):
    from fatkit.tensor import _col2im

    ci, co = channels
    x = Tensor(rng.normal(size=(ci,) + shape), requires_grad=True)
    w = Tensor(rng.normal(size=(co, ci, k, k)))
    g = rng.normal(size=(co,) + shape)
    (conv2d(x, w, Tensor(np.zeros(co)), stride=1) * Tensor(g)).sum().backward()
    scatter = _col2im(w.data.reshape(co, ci * k * k).T @ g.reshape(co, -1), x.shape, k, 1)
    assert x.grad.flags.c_contiguous
    np.testing.assert_allclose(x.grad, scatter, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "op, wshape, xshape", [(conv2d, (3, 2, 3, 3), (2, 6, 6)), (deconv2d, (2, 3, 3, 3), (2, 4, 4))]
)
def test_conv_without_bias(rng, op, wshape, xshape):
    x = Tensor(rng.normal(size=xshape), requires_grad=True)
    w = Tensor(rng.normal(size=wshape), requires_grad=True)
    out = op(x, w, stride=2)
    gx, gw, gb = out._backward(np.ones(out.shape))
    assert gx.shape == x.shape and gw.shape == w.shape and gb is None
    out.sum().backward()
    assert x.grad is not None and w.grad is not None
    with pytest.raises(ShapeError, match="channels disagree"):
        op(x, w, Tensor(np.zeros(4)), stride=2)


@pytest.mark.parametrize(
    "op, wshape, xshape", [(conv2d, (3, 2, 3, 3), (2, 6, 6)), (deconv2d, (2, 3, 3, 3), (2, 4, 4))]
)
@pytest.mark.parametrize("stride", [1, 2])
def test_conv_builds_only_required_gradients(rng, op, wshape, xshape, stride):
    def operands(x_grad, w_grad):
        x = Tensor(np.full(xshape, 0.7) if not x_grad else rng.normal(size=xshape), requires_grad=x_grad)
        w = Tensor(rng.normal(size=wshape), requires_grad=w_grad)
        b = Tensor(rng.normal(size=wshape[0] if op is conv2d else wshape[1]), requires_grad=w_grad)
        return x, w, b

    # constant input: only the weight and bias gradients are built
    x, w, b = operands(False, True)
    out = op(x, w, b, stride=stride)
    gx, gw, gb = out._backward(np.ones(out.shape))
    assert gx is None and gw.shape == w.shape and gb.shape == b.shape
    out.sum().backward()
    assert x.grad is None and w.grad is not None and b.grad is not None
    # frozen weights: only the input gradient is built
    x, w, b = operands(True, False)
    out = op(x, w, b, stride=stride)
    gx, gw, gb = out._backward(np.ones(out.shape))
    assert gw is None and gb is None and gx.shape == x.shape
    out.sum().backward()
    assert w.grad is None and b.grad is None and x.grad is not None


# every conv2d of a default 64 px, width-16 train step with the spatial branch on:
# (input shape, weight shape, stride, bias)
MODEL_CONV_SHAPES = [
    ((3, 64, 64), (16, 3, 3, 3), 1, False),  # generator encoder
    ((16, 64, 64), (32, 16, 3, 3), 2, False),
    ((32, 32, 32), (64, 32, 3, 3), 2, False),
    ((64, 16, 16), (64, 64, 3, 3), 1, False),  # bottleneck blocks
    ((64, 16, 16), (64, 64, 1, 1), 1, True),  # attribute estimator
    ((64, 16, 16), (128, 64, 3, 3), 1, True),
    ((16, 64, 64), (3, 16, 3, 3), 1, True),  # generator output
    ((3, 64, 64), (16, 3, 3, 3), 2, True),  # discriminators
    ((16, 32, 32), (32, 16, 3, 3), 2, False),
    ((32, 16, 16), (64, 32, 3, 3), 2, False),
    ((64, 8, 8), (1, 64, 3, 3), 2, True),
    ((3, 64, 64), (8, 3, 3, 3), 2, False),  # perceptual stack
    ((8, 32, 32), (16, 8, 3, 3), 2, False),
    ((16, 16, 16), (16, 16, 3, 3), 1, False),
    ((64, 8, 8), (2, 64, 3, 3), 1, True),  # spatial control head
]


@pytest.mark.parametrize("xshape, wshape, stride, bias", MODEL_CONV_SHAPES)
def test_conv2d_weight_gradient_equals_kept_columns_bits(rng, xshape, wshape, stride, bias):
    from fatkit.tensor import _im2col

    x = Tensor(rng.normal(size=xshape), requires_grad=True)
    w = Tensor(rng.normal(size=wshape), requires_grad=True)
    b = Tensor(rng.normal(size=wshape[0]), requires_grad=True) if bias else None
    out = conv2d(x, w, b, stride=stride)
    g = rng.normal(size=out.shape)
    gmat = g.reshape(wshape[0], -1)
    kept = (gmat @ _im2col(x.data, wshape[2], stride)[0].T).reshape(wshape)
    gw = out._backward(g)[1]
    assert gw.shape == kept.shape
    if stride == 1 and wshape[0] < wshape[1]:
        # a narrowing stride-1 conv takes gw from the output gradient's columns, which
        # sums the same products in another blocking: equal within rounding (about 1e-15)
        np.testing.assert_allclose(gw, kept, rtol=0, atol=1e-14 * np.abs(kept).max())
    else:
        assert gw.tobytes() == kept.tobytes()


def test_conv2d_keeps_no_columns_between_forward_and_backward(rng):
    import tracemalloc

    x = Tensor(rng.normal(size=(16, 64, 64)))
    w = Tensor(rng.normal(size=(16, 16, 3, 3)), requires_grad=True)
    tracemalloc.start()
    try:
        out = conv2d(x, w, stride=1)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (C*k*k, H*W) column matrix alone would be 9 times x
    assert held < out.data.nbytes + x.data.nbytes
    out.sum().backward()
    assert w.grad.shape == w.shape


def _direct_conv_and_grads(x, w, g):
    """Same-padded stride-1 cross-correlation, its input gradient and its
    weight gradient under output gradient g, by direct summation over taps."""
    (ci, h, wid), (co, _, k, _) = x.shape, w.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((co, h, wid))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for di in range(k):
        for dj in range(k):
            window = xp[:, di : di + h, dj : dj + wid]
            out += np.einsum("oc,chw->ohw", w[:, :, di, dj], window)
            gxp[:, di : di + h, dj : dj + wid] += np.einsum("oc,ohw->chw", w[:, :, di, dj], g)
            gw[:, :, di, dj] = np.einsum("ohw,chw->oc", g, window)
    return out, gxp[:, pad : pad + h, pad : pad + wid], gw


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("channels", [(2, 5), (5, 2), (4, 4)])
@pytest.mark.parametrize("x_grad, w_grad", [(True, True), (True, False), (False, True), (False, False)])
def test_conv2d_stride1_narrower_side_matches_direct_summation(rng, k, channels, x_grad, w_grad):
    ci, co = channels
    x = Tensor(rng.normal(size=(ci, 6, 7)), requires_grad=x_grad)
    w = Tensor(rng.normal(size=(co, ci, k, k)), requires_grad=w_grad)
    g = rng.normal(size=(co, 6, 7))
    want_out, want_gx, want_gw = _direct_conv_and_grads(x.data, w.data, g)
    out = conv2d(x, w, stride=1)
    np.testing.assert_allclose(out.data, want_out, rtol=0, atol=1e-12)
    if not (x_grad or w_grad):
        assert out._backward is None
        return
    gx, gw, gb = out._backward(g)
    assert gb is None and (gx is None) != x_grad and (gw is None) != w_grad
    if x_grad:
        assert gx.flags.c_contiguous
        np.testing.assert_allclose(gx, want_gx, rtol=0, atol=1e-12)
    if w_grad:
        np.testing.assert_allclose(gw, want_gw, rtol=0, atol=1e-12)


@pytest.mark.parametrize("channels", [(2, 5), (5, 2), (4, 4)])
def test_conv2d_stride1_backward_builds_one_column_matrix(rng, channels, monkeypatch):
    import fatkit.tensor as tensor_module

    ci, co = channels
    x = Tensor(rng.normal(size=(ci, 6, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(co, ci, 3, 3)), requires_grad=True)
    out = conv2d(x, w, stride=1)
    calls = []
    im2col = tensor_module._im2col

    def counted(*args):
        calls.append(args)
        return im2col(*args)

    monkeypatch.setattr(tensor_module, "_im2col", counted)
    gx, gw, _ = out._backward(rng.normal(size=out.shape))
    assert gx is not None and gw is not None
    assert len(calls) == 1


def test_conv2d_narrowing_builds_no_wide_column_matrix(rng):
    import tracemalloc

    # the generator's output conv: its (16*9, 64*64) input columns are 4.7 MB
    x = Tensor(rng.normal(size=(16, 64, 64)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 16, 3, 3)), requires_grad=True)
    g = rng.normal(size=(3, 64, 64))
    wide = 16 * 9 * 64 * 64 * 8
    tracemalloc.start()
    try:
        out = conv2d(x, w, stride=1)
        _, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        grads = out._backward(g)
        _, backward_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grads[0].shape == x.shape and grads[1].shape == w.shape
    assert forward_peak < wide and backward_peak < wide


def test_col2im_scatters_own_their_memory(rng):
    # a stride-2 input gradient and a transposed-conv output keep no view of
    # the padded scatter buffer alive
    x = Tensor(rng.normal(size=(4, 8, 8)), requires_grad=True)
    out = conv2d(x, Tensor(rng.normal(size=(6, 4, 3, 3))), stride=2)
    gx = out._backward(rng.normal(size=out.shape))[0]
    up = deconv2d(Tensor(rng.normal(size=(4, 4, 4))), Tensor(rng.normal(size=(4, 2, 3, 3))), stride=2)
    for arr in (gx, up.data):
        assert arr.flags.c_contiguous and arr.base is None


# -- normalization, activations, softmax ---------------------------------------


def test_instance_norm_constant_channel_is_zero():
    x = Tensor(np.full((2, 4, 4), 3.7))
    np.testing.assert_array_equal(instance_norm(x).data, np.zeros((2, 4, 4)))


def test_instance_norm_two_point_channel():
    out = instance_norm(Tensor(np.array([1.0, 3.0]).reshape(1, 1, 2)), eps=1e-12)
    np.testing.assert_allclose(out.data.ravel(), [-1.0, 1.0], atol=1e-5)


def test_instance_norm_zero_mean(rng):
    x = Tensor(rng.normal(size=(3, 8, 8)))
    out = instance_norm(x)
    np.testing.assert_allclose(out.data.mean(axis=(1, 2)), 0.0, atol=1e-9)


def test_softmax_basics():
    np.testing.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])
    np.testing.assert_allclose(softmax(Tensor([1000.0, 1000.0])).data, [0.5, 0.5])
    np.testing.assert_allclose(softmax(Tensor([0.0, np.log(3.0)])).data, [0.25, 0.75])


def test_softmax_rows_sum_to_one_at_large_magnitude(rng):
    x = Tensor(rng.uniform(-1e3, 1e3, size=(20, 7)))
    out = softmax(x, axis=1)
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)
    assert np.all((out.data >= 0.0) & (out.data <= 1.0))
    moderate = softmax(Tensor(rng.uniform(-5, 5, size=(20, 7))), axis=1)
    assert np.all((moderate.data > 0.0) & (moderate.data < 1.0))


def composed_product(q, keys, w_mix, values):
    """`mixed_attention` from the general ops: A @ values."""
    return matmul(composed_attention(q, keys, w_mix), values)


@pytest.mark.parametrize("heads", [1, 2, 3])
def test_mixed_attention_equals_the_composed_graph_bit_for_bit(rng, heads):
    # the fused op recomputes the per-head scores in its backward and
    # rebuilds A there in place of keeping it; its value and its gradients
    # are those of the composed graph that keeps them
    q, keys, w_mix = leaf(rng, 7, 4 * heads, scale=2.0), leaf(rng, 5, 4 * heads, scale=2.0), leaf(rng, heads)
    inputs = [q, keys, w_mix, leaf(rng, 5, 6)]
    g = Tensor(rng.normal(size=(7, 6)))
    runs = []
    for op in (mixed_attention, composed_product):
        zero_grads(inputs)
        out = op(*inputs)
        (out * g).sum().backward()
        runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in inputs])
    assert runs[0] == runs[1]


def test_mixed_attention_gradient(rng):
    p = Tensor(rng.normal(size=(4, 2)))
    inputs = [leaf(rng, 4, 6), leaf(rng, 3, 6), leaf(rng, 2), leaf(rng, 3, 2)]
    check_grads(lambda *a: (mixed_attention(*a) * p).sum(), inputs, tol=1e-5)


def test_mixed_attention_rejects_mismatched_shapes(rng):
    values = leaf(rng, 3, 5)
    with pytest.raises(ShapeError):
        mixed_attention(leaf(rng, 4, 6), leaf(rng, 3, 4), leaf(rng, 2), values)
    for w_mix in (leaf(rng, 4), leaf(rng, 0)):
        with pytest.raises(ShapeError):
            mixed_attention(leaf(rng, 4, 6), leaf(rng, 3, 6), w_mix, values)
    for values in (leaf(rng, 4, 5), leaf(rng, 3)):  # one row per key, as a matrix
        with pytest.raises(ShapeError):
            mixed_attention(leaf(rng, 4, 6), leaf(rng, 3, 6), leaf(rng, 2), values)
    with pytest.raises(TypeError):  # the values are not optional
        mixed_attention(leaf(rng, 4, 6), leaf(rng, 3, 6), leaf(rng, 2))


def attention_run(inputs, g):
    """`mixed_attention`'s output and its four gradients under the output
    gradient g."""
    zero_grads(inputs)
    out = mixed_attention(*inputs)
    (out * g).sum().backward()
    return [out.data] + [t.grad for t in inputs]


def test_mixed_attention_query_blocks_match_one_block(rng, monkeypatch):
    # M = 20 rows in blocks of 8 (the last one short): the forward and the
    # query gradient are row blocks of the one-block result, and the key,
    # value and mix gradients are sums over the blocks in another order
    inputs = [leaf(rng, 20, 6, scale=2.0), leaf(rng, 9, 6, scale=2.0), leaf(rng, 2), leaf(rng, 9, 5)]
    g = Tensor(rng.normal(size=(20, 5)))
    whole = attention_run(inputs, g)
    monkeypatch.setattr(fatkit.tensor, "QUERY_BLOCK", 8)
    for got, ref in zip(attention_run(inputs, g), whole):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    check_grads(lambda *a: (mixed_attention(*a) * g).sum(), inputs, tol=1e-5)


def test_mixed_attention_without_query_rows(rng):
    # M = 0 gives a (0, dv) output and zero key, value and mix gradients
    inputs = [leaf(rng, 0, 6), leaf(rng, 3, 6), leaf(rng, 2), leaf(rng, 3, 5)]
    out, gq, gkeys, gmix, gvalues = attention_run(inputs, Tensor(np.zeros((0, 5))))
    assert out.shape == (0, 5) and gq.shape == (0, 6)
    for grad, shape in ((gkeys, (3, 6)), (gmix, (2,)), (gvalues, (3, 5))):
        np.testing.assert_array_equal(grad, np.zeros(shape))


def test_getitem_gradient_counts_repeated_indices(rng):
    # an integer-array key may pick one element several times; each pick
    # adds its share of the gradient
    x = Tensor(np.arange(3.0), requires_grad=True)
    x[np.array([0, 0, 1])].sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 1.0, 0.0])
    p = Tensor(rng.normal(size=(2, 4)))
    check_grads(lambda a: (a[:, np.array([2, 0, 2, 2])] * p).sum(), [leaf(rng, 2, 3)])


@pytest.mark.parametrize("n", [1, 3, 9, 70])
def test_relu_special_values(n):
    # the lengths cover both the vector body and the scalar tail of the kernel
    specials = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, -1.5, 2.5])
    x = np.resize(specials, n)
    out = relu(Tensor(x)).data
    expected = np.resize(np.array([0.0, 0.0, 0.0, np.inf, 0.0, 0.0, 2.5]), n)
    np.testing.assert_array_equal(out, expected)
    assert not np.signbit(out).any()  # -0.0 and NaN map to +0.0
    assert out.tobytes() == np.where(x > 0, x, 0.0).tobytes()


def test_tanh_bounded(rng):
    # float64 saturates to +-1.0 beyond |x| ~ 19, so the strict bound is
    # checked on the non-saturated range and <= 1 everywhere else
    out = tanh(Tensor(rng.uniform(-50, 50, size=100)))
    assert np.all(np.abs(out.data) <= 1.0)
    strict = tanh(Tensor(rng.uniform(-15, 15, size=100)))
    assert np.all(np.abs(strict.data) < 1.0)


# -- losses and reductions ------------------------------------------------------


def test_l1_of_identical_inputs_is_zero(rng):
    x = Tensor(rng.normal(size=(3, 3)))
    assert l1_loss(x, Tensor(x.data.copy())).item() == 0.0


def test_mse_mean_of_squared_residuals():
    assert mse_loss(Tensor([0.0, 2.0]), Tensor([0.0, 0.0])).item() == 2.0


# -- grid sampling ---------------------------------------------------------------


def identity_grid(h, w):
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    grid = np.empty((h, w, 2))
    grid[..., 0] = (2.0 * xs + 1.0) / w - 1.0
    grid[..., 1] = (2.0 * ys + 1.0) / h - 1.0
    return grid


def test_grid_sample_identity(rng):
    x = Tensor(rng.uniform(size=(3, 8, 8)))
    out = grid_sample(x, Tensor(identity_grid(8, 8)))
    np.testing.assert_allclose(out.data, x.data, atol=1e-6)


def test_grid_sample_integer_shift(rng):
    x = rng.uniform(size=(1, 8, 8))
    grid = identity_grid(8, 8)
    grid[..., 0] += 2.0 / 8.0  # one pixel to the right
    out = grid_sample(Tensor(x), Tensor(grid)).data
    np.testing.assert_allclose(out[:, :, :-1], x[:, :, 1:], atol=1e-12)


def test_grid_sample_border_clamp(rng):
    x = rng.uniform(size=(1, 4, 4))
    grid = identity_grid(4, 4)
    grid[..., 0] -= 5.0  # far outside: clamps to the left border column
    out = grid_sample(Tensor(x), Tensor(grid)).data
    np.testing.assert_allclose(out, np.broadcast_to(x[:, :, :1], (1, 4, 4)), atol=1e-12)


def _taps(coord, n):
    pos = (coord + 1.0) * (n / 2.0) - 0.5
    lo = np.floor(pos)
    i = lo.astype(np.int64)
    return np.clip(i, 0, n - 1), np.clip(i + 1, 0, n - 1), pos - lo


def _fancy_index_bilinear(image, grid):
    """The bilinear formula with 2-D fancy indexing, as a reference for the kernel's bits."""
    _, h, w = image.shape
    x0, x1, fx = _taps(grid[..., 0], w)
    y0, y1, fy = _taps(grid[..., 1], h)
    top = image[:, y0, x0] * (1.0 - fx) + image[:, y0, x1] * fx
    bot = image[:, y1, x0] * (1.0 - fx) + image[:, y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def _clamped_grid(rng, h, w, oh, ow):
    """Grid points past +-1 on every side, the exact corners, and exact
    border pixel centres of an h x w image."""
    grid = rng.uniform(-1.5, 1.5, size=(oh, ow, 2))
    grid[0, :4, 0] = [-1.0, 1.0, 1.0 / w - 1.0, 1.0 - 1.0 / w]
    grid[0, :4, 1] = [-1.0, 1.0, 1.0 / h - 1.0, 1.0 - 1.0 / h]
    grid[-1, :4] = [[-1.0, 1.0], [1.0, -1.0], [-7.0, 0.0], [0.0, 7.0]]
    return grid


@pytest.mark.parametrize("c, h, w, oh, ow", [(1, 5, 7, 9, 4), (3, 64, 48, 30, 50), (64, 16, 16, 16, 16), (3, 9, 31, 6, 5)])
def test_bilinear_sample_bits_equal_fancy_indexing_formula(rng, c, h, w, oh, ow):
    image = rng.normal(size=(c, h, w))
    grid = _clamped_grid(rng, h, w, oh, ow)
    expected = _fancy_index_bilinear(image, grid)
    got = bilinear_sample(image, grid)
    assert got.shape == expected.shape == (c, oh, ow)
    assert got.tobytes() == expected.tobytes()
    assert grid_sample(Tensor(image), Tensor(grid)).data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("c", [1, 3, 64])
def test_grid_sample_image_gradient_bits_equal_add_at_reference(rng, c):
    h, w = 6, 5
    image = Tensor(rng.normal(size=(c, h, w)), requires_grad=True)
    grid = _clamped_grid(rng, h, w, 7, 8)
    probe = rng.normal(size=(c, 7, 8))
    (grid_sample(image, Tensor(grid)) * Tensor(probe)).sum().backward()
    # four sequential scatters, one per corner; clamping sends many terms to one pixel
    x0, x1, fx = _taps(grid[..., 0], w)
    y0, y1, fy = _taps(grid[..., 1], h)
    expected = np.zeros((c, h, w))
    ch = np.arange(c)[:, None, None]
    np.add.at(expected, (ch, y0[None], x0[None]), probe * ((1.0 - fy) * (1.0 - fx))[None])
    np.add.at(expected, (ch, y0[None], x1[None]), probe * ((1.0 - fy) * fx)[None])
    np.add.at(expected, (ch, y1[None], x0[None]), probe * (fy * (1.0 - fx))[None])
    np.add.at(expected, (ch, y1[None], x1[None]), probe * (fy * fx)[None])
    assert np.count_nonzero((x0 == x1) | (y0 == y1)) > 10
    assert image.grad.tobytes() == expected.tobytes()


# -- TPS kernel pieces -----------------------------------------------------------


@pytest.mark.parametrize("n, k", [(4096, 34), (300, 8), (1, 1)])
def test_sqdist_forward_equals_einsum_form(rng, n, k):
    a = rng.uniform(-1.0, 1.0, size=(n, 2))
    b = rng.uniform(-1.0, 1.0, size=(k, 2))
    b[-1] = a[n // 2]  # one zero distance
    diff = a[:, None, :] - b[None, :, :]
    expected = np.einsum("ijk,ijk->ij", diff, diff)
    got = pairwise_sqdist(Tensor(a), Tensor(b)).data
    assert got[n // 2, k - 1] == 0.0
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n, k", [(256, 64), (64, 64)])
def test_sqdist_backward_equals_einsum_form(rng, n, k):
    # the TPS shapes at the default config: feature lattice to control grid, and the control system
    a = Tensor(rng.uniform(-1.0, 1.0, size=(n, 2)), requires_grad=True)
    b = Tensor(rng.uniform(-1.0, 1.0, size=(k, 2)), requires_grad=True)
    g = rng.normal(size=(n, k))
    ga, gb = pairwise_sqdist(a, b)._backward(g)
    diff = a.data[:, None, :] - b.data[None, :, :]
    for got, expected in ((ga, 2.0 * np.einsum("ij,ijk->ik", g, diff)), (gb, -2.0 * np.einsum("ij,ijk->jk", g, diff))):
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_xlogx_forward_equals_where_form():
    d = np.array([0.0, 1e-300, 1e-200, 1.0, np.e])
    pos = d > 1e-300
    safe = np.where(pos, d, 1.0)
    expected = np.where(pos, safe * np.log(safe), 0.0)
    assert xlogx(Tensor(d)).data.tobytes() == expected.tobytes()


# -- autograd contracts -----------------------------------------------------------


def test_backward_simple_quadratic():
    x = Tensor([3.0], requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(GraphError):
        (x * 2.0).backward()


def test_backward_accumulates_until_reset():
    # a backward frees its graph, so each call walks a graph built for it;
    # gradients still add across graphs until zero_grads
    x = Tensor([2.0], requires_grad=True)
    for _ in range(2):
        y = (x * x).sum()
        y.backward()
    np.testing.assert_allclose(x.grad, [8.0])
    zero_grads([x])
    y = (x * x).sum()
    y.backward()
    np.testing.assert_allclose(x.grad, [4.0])


def test_second_backward_on_one_root_raises():
    x = Tensor([2.0], requires_grad=True)
    y = (x * x).sum()
    y.backward()
    with pytest.raises(GraphError, match="freed"):
        y.backward()
    np.testing.assert_allclose(x.grad, [4.0])


def test_backward_through_a_node_another_backward_freed_raises(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    h = x * x
    first, second = h.sum(), (h * 3.0).sum()
    first.backward()
    # the second graph's own nodes are intact, but it reaches the shared
    # product, whose backward the first walk ran and freed
    with pytest.raises(GraphError, match="freed"):
        second.backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-15)


def test_backward_frees_what_its_closures_held(rng):
    import weakref

    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)))
    held = weakref.ref(w.data)
    y = (x * w).sum()
    del w
    assert held() is not None  # the product's backward holds the operand
    y.backward()
    assert held() is None and y._node is not None


def test_backward_frees_each_node_before_it_walks_the_parents(rng):
    import weakref

    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)))
    expected = 2.0 * w.data
    held = weakref.ref(w.data)
    scaled = x * 2.0
    y = (scaled * w).sum()
    del w
    back, seen = scaled._backward, []

    def check(g):
        # the product ran before the scale, so the operand it held is gone
        seen.append(held() is None)
        return back(g)

    scaled._backward = check
    y.backward()
    assert seen == [True]
    assert x.grad.tobytes() == expected.tobytes()


def test_detach_blocks_gradient():
    x = Tensor([1.5], requires_grad=True)
    (x.detach() * 3.0).sum().backward()
    assert x.grad is None


def test_graph_attributes_read_through_to_the_node(rng):
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=(2, 3)))
    for t in (x, c, x.detach()):
        assert (t._parents, t._backward, t._op) == ((), None, "leaf")
    y = x * c
    # a leaf stands in the graph as itself, an interior tensor as its node
    assert len(y._parents) == 2 and y._parents[0] is x and y._parents[1] is c
    assert y._op == "mul" and y._backward is not None
    z = tanh(y)
    assert z._parents == (y._node,) and z._parents[0]._op == "mul" and z._parents[0].requires_grad
    with pytest.raises(GraphError, match="leaf"):
        x._backward = lambda g: (g,)
    # a replaced interior backward is the one the walk runs
    back = y._backward
    y._backward = lambda g: tuple(2.0 * v for v in back(g))
    assert z._parents[0]._backward is y._backward
    z.sum().backward()
    np.testing.assert_allclose(x.grad, 2.0 * (1.0 - np.tanh(x.data * c.data) ** 2) * c.data, rtol=1e-14)


@pytest.mark.parametrize("case", ["conv-norm-relu", "norm-relu-conv", "logits-softmax"])
def test_activation_that_no_backward_reads_dies_with_its_tensor(rng, case):
    import weakref

    if case == "conv-norm-relu":
        w = Tensor(rng.normal(size=(6, 4, 3, 3)), requires_grad=True)
        operand = Tensor(rng.normal(size=(4, 8, 8)))

        def forward(keep):
            mid = conv2d(operand, w)
            keep.append(mid)
            return relu(instance_norm(mid))
    elif case == "norm-relu-conv":
        # the second conv's weight gradient reads the ReLU output, which it
        # rebuilds from the normalized map the norm's backward holds
        w = Tensor(rng.normal(size=(4, 4, 3, 3)), requires_grad=True)
        operand = Tensor(rng.normal(size=(4, 8, 8)))

        def forward(keep):
            mid = relu(instance_norm(conv2d(operand, w)))
            keep.append(mid)
            return conv2d(mid, w)
    else:
        w = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        operand = Tensor(rng.normal(size=(2, 3, 7)))

        def forward(keep):
            mid = matmul(w, operand)  # attention logits
            keep.append(mid)
            return softmax(mid)

    g = Tensor(rng.normal(size=forward([]).shape))
    grads = []
    for drop in (False, True):
        keep = []
        out = forward(keep)
        freed = weakref.ref(keep[0].data)
        if drop:
            keep.clear()
            assert freed() is None  # neither the graph nor a backward holds it
        zero_grads([w])
        tensor_sum(out * g).backward()
        grads.append(w.grad.tobytes())
    assert grads[0] == grads[1]


def test_relu_keeps_its_input_and_rebuilds_its_output_bits(rng):
    values = np.array([np.nan, -np.inf, -1.5, -1e-300, -0.0, 0.0, 1e-300, 2.5, np.inf])
    x = Tensor(np.concatenate([values, rng.normal(size=70)]), requires_grad=True)
    y = relu(x)
    g = rng.normal(size=y.shape)
    # the mask read from the input is the mask of the kept-output reference
    assert y._backward(g)[0].tobytes() == (g * (y.data > 0)).tobytes()
    assert y._node._rebuild().tobytes() == y.data.tobytes()


@pytest.mark.parametrize("axis", [0, 1])
def test_concat_keeps_its_parts_and_rebuilds_its_value_bits(rng, axis):
    # the recipe joins the parts' kept values, a ReLU output rebuilt from
    # its input among them, and a matmul of the result reads the recipe
    parts = [relu(leaf(rng, 4, 3)), leaf(rng, 4, 3), Tensor(rng.normal(size=(4, 3)))]
    y = concat(parts, axis=axis)
    assert y._node._rebuild().tobytes() == y.data.tobytes()
    held = node_held_arrays(y._node)
    assert all(id(base_buffer(p.data)) in held for p in parts[1:])
    w = leaf(rng, y.shape[1], 2)
    out, kept = matmul(y, w), matmul(Tensor(y.data.copy(), requires_grad=True), w)
    g = rng.normal(size=out.shape)
    for got, ref in zip(out._backward(g), kept._backward(g)):
        assert got.tobytes() == ref.tobytes()


def test_grid_sample_keeps_its_input_not_its_corners(rng):
    # the backward gathers the four (C, h'*w') corner arrays again from the
    # kept input, so the node holds none of them
    x, grid = leaf(rng, 3, 5, 6), leaf(rng, 4, 7, 2, scale=1.2)
    held = node_held_arrays(grid_sample(x, grid)._node)
    assert id(base_buffer(x.data)) in held
    assert all(b.size != 3 * 4 * 7 for key, b in held.items() if key != id(base_buffer(x.data)))


@pytest.mark.parametrize("op, wshape, stride", [
    (conv2d, (6, 4, 3, 3), 1), (conv2d, (4, 4, 3, 3), 1), (conv2d, (2, 4, 3, 3), 1),
    (conv2d, (6, 4, 3, 3), 2), (conv2d, (3, 4, 1, 1), 1),
    (deconv2d, (4, 2, 3, 3), 1), (deconv2d, (4, 6, 3, 3), 2),
])
def test_weight_gradient_of_a_relu_output_equals_kept_output_bits(rng, op, wshape, stride):
    # a conv that rebuilds its ReLU'd input gives the gradients of one that
    # reads a kept copy of it, bit for bit
    x = relu(instance_norm(leaf(rng, 4, 8, 8)))
    w = leaf(rng, *wshape)
    b = leaf(rng, wshape[1] if op is deconv2d else wshape[0])
    out = op(x, w, b, stride=stride)
    g = rng.normal(size=out.shape)
    kept = op(Tensor(x.data.copy(), requires_grad=True), w, b, stride=stride)
    assert out.data.tobytes() == kept.data.tobytes()
    for got, ref in zip(out._backward(g), kept._backward(g)):
        assert got.tobytes() == ref.tobytes()


def test_no_backward_closure_holds_a_tensor(rng):
    # each backward and rebuild recipe holds the arrays it reads, never an
    # operand Tensor, so no closure keeps a whole value alive for the graph's
    # sake
    a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
    img, grid = leaf(rng, 4, 6, 6), leaf(rng, 5, 5, 2, scale=0.5)
    square = Tensor(rng.normal(size=(3, 3)) + 4.0 * np.eye(3), requires_grad=True)

    def conv(co, ci, stride, bias=True):
        w = leaf(rng, co, ci, 3, 3)
        return conv2d(img if ci == 4 else concat([img, img]), w, leaf(rng, co) if bias else None, stride)

    outs = [
        a + b, a + 1.0, -a, a * b, a * 2.0, a / 2.0, a[1:, :2], a.sum(), tensor_mean(a),
        relu(a), tanh(a), softplus(a), xlogx(a * a), l1_loss(a, b), mse_loss(a, b),
        reshape(a, (4, 3)), transpose(a), concat([a, b], axis=1), matmul(a, transpose(b)),
        linear_solve(square, a), pairwise_sqdist(a, b), softmax(a),
        mixed_attention(a, b, leaf(rng, 2), leaf(rng, 3, 5)),
        instance_norm(img), avg_pool2d(img, 2),
        conv(2, 4, 1), conv(6, 4, 1, bias=False), conv(6, 8, 2), deconv2d(img, leaf(rng, 4, 2, 3, 3), stride=2),
        grid_sample(img, grid),
    ]
    for out in outs:
        fns = [fn for fn in (out._node._backward, out._node._rebuild) if fn is not None]
        assert not any(isinstance(v, Tensor) for fn in fns for v in closure_values(fn)), out._op


@pytest.mark.parametrize("operand", ["number", "tensor"])
def test_subtraction_is_addition_of_the_negation(rng, operand):
    # t - s and t + (-s) agree bit for bit, value and gradients
    t = leaf(rng, 3, 4)
    s = 0.3 if operand == "number" else leaf(rng, 3, 4)
    leaves = [t] if operand == "number" else [t, s]
    runs = []
    for combine in (lambda: t - s, lambda: t + (-s)):
        zero_grads(leaves)
        out = combine()
        (out * out).sum().backward()
        runs.append([out.data.tobytes()] + [x.grad.tobytes() for x in leaves])
    assert runs[0] == runs[1]


def test_composite_conv_norm_relu_graph_gradient(rng):
    x = leaf(rng, 2, 5, 5)
    w = leaf(rng, 3, 2, 3, 3, scale=0.7)
    b = leaf(rng, 3, scale=0.3)

    def f(x, w, b):
        return relu(instance_norm(conv2d(x, w, b, stride=1)) + 0.3).sum()

    check_grads(f, [x, w, b], tol=1e-4)


@pytest.mark.parametrize("trial", range(5))
def test_gradient_suite_per_op(rng, trial):
    r = np.random.default_rng(100 + trial)

    def t(*shape, scale=1.0):
        return leaf(r, *shape, scale=scale)

    def probe(*shape):
        # fixed weights that scalarize an output; built once so the repeated
        # finite-difference evaluations see the same function
        return Tensor(r.normal(size=shape))

    p34 = probe(3, 4)
    check_grads(lambda a, b: matmul(a, b).sum(), [t(3, 5), t(5, 4)])
    p = probe(2, 3, 3)
    check_grads(lambda a, b: (matmul(a, b) * p).sum(), [t(2, 3, 4), t(2, 4, 3)])
    p = probe(2, 3, 3)
    check_grads(lambda x, w, b: (conv2d(x, w, b, stride=2) * p).sum(), [t(1, 5, 5), t(2, 1, 3, 3), t(2)])
    p = probe(3, 5, 7)
    for k in (1, 3, 5):
        # stride 1, two channels in and three out: the input gradient is the gather
        check_grads(lambda x, w, b: (conv2d(x, w, b, stride=1) * p).sum(), [t(2, 5, 7), t(3, 2, k, k), t(3)])
    # no bias: the output is the zero-bias output bit for bit
    x, w = t(2, 5, 7), t(3, 2, 3, 3)
    assert conv2d(x, w).data.tobytes() == conv2d(x, w, Tensor(np.zeros(3))).data.tobytes()
    check_grads(lambda x, w: (conv2d(x, w, stride=1) * p).sum(), [x, w])
    for side in (1, 2):
        for stride in (1, 2):
            # an input smaller than the kernel is zero-padded like any other
            p = probe(3, -(-side // stride), -(-side // stride))
            leaves = [t(2, side, side), t(3, 2, 3, 3), t(3)]
            check_grads(lambda x, w, b: (conv2d(x, w, b, stride=stride) * p).sum(), leaves)
    p = probe(1, 8, 8)
    check_grads(lambda x, w, b: (deconv2d(x, w, b, stride=2) * p).sum(), [t(2, 4, 4), t(2, 1, 3, 3), t(1)])
    p = probe(2, 4, 4)
    check_grads(lambda x: (instance_norm(x) * p).sum(), [t(2, 4, 4)])
    check_grads(lambda x: (softmax(x, axis=1) * p34).sum(), [t(3, 4)])
    check_grads(lambda x: (tanh(x) * p34).sum(), [t(3, 4)])
    check_grads(lambda x: (softplus(x) * p34).sum(), [t(3, 4)])
    check_grads(lambda x: (relu(x + 0.4) * p34).sum(), [t(3, 4, scale=0.3)])
    p = probe(2, 2, 2)
    check_grads(lambda x: (avg_pool2d(x, 2) * p).sum(), [t(2, 4, 4)])
    check_grads(lambda a, b: mse_loss(a, b), [t(3, 4), t(3, 4)])
    check_grads(lambda a, b: l1_loss(a, b), [t(3, 4), t(3, 4)])  # inputs almost surely off the kink
    p = probe(3, 9)
    check_grads(lambda a, b: (concat([a, b], axis=1) * p).sum(), [t(3, 4), t(3, 5)])
    p = probe(4, 3)
    check_grads(lambda x: (transpose(x) * p).sum(), [t(3, 4)])
    p = probe(2, 2)
    check_grads(lambda x: (x[1:, :2] * p).sum(), [t(3, 4)])
    check_grads(lambda x: (xlogx(x) * p34).sum(), [Tensor(r.uniform(0.5, 1.5, size=(3, 4)), requires_grad=True)])
    p = probe(4, 3)
    check_grads(lambda a, b: (pairwise_sqdist(a, b) * p).sum(), [t(4, 2), t(3, 2)])
    a_mat = Tensor(r.normal(size=(4, 4)) + 4.0 * np.eye(4), requires_grad=True)
    p = probe(4, 2)
    check_grads(lambda a, b: (linear_solve(a, b) * p).sum(), [a_mat, t(4, 2)])


def test_grid_sample_grad_wrt_grid_at_fractional_points(rng):
    x = leaf(rng, 1, 6, 6)
    grid_np = identity_grid(6, 6) + rng.uniform(-0.4, 0.4, size=(6, 6, 2)) / 6.0
    grid = Tensor(grid_np, requires_grad=True)
    probe = Tensor(rng.normal(size=(1, 6, 6)))
    check_grads(lambda x, g: (grid_sample(x, g) * probe).sum(), [x, grid])


# -- determinism -----------------------------------------------------------------


def test_ops_bit_deterministic(rng):
    x = rng.normal(size=(4, 16, 16))
    w = rng.normal(size=(8, 4, 3, 3))
    b = rng.normal(size=8)
    one = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2).data
    two = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2).data
    assert np.array_equal(one, two)


# -- Adam -------------------------------------------------------------------------


def test_adam_zero_gradient_keeps_parameters():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    state = AdamState([p])
    adam_step(state, lr=0.1)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert state.t == 1


def test_adam_first_step_magnitude_is_lr():
    p = Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([5.0])  # |g| >> eps
    adam_step(AdamState([p]), lr=1e-2)
    np.testing.assert_allclose(p.data, [-1e-2], rtol=1e-6)


def test_adam_step_without_grad_decays_moments_and_moves():
    # a parameter whose grad is None is stepped as if its gradient were 0
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = AdamState([p])
    p.grad = np.array([1.0])
    adam_step(state, lr=0.1)
    first = p.data.copy()
    p.grad = None
    adam_step(state, lr=0.1)
    m, v = 0.5 * 0.5, 0.999 * 0.001  # beta1 = 0.5, beta2 = 0.999
    np.testing.assert_allclose(state.m[0], [m], rtol=1e-12)
    np.testing.assert_allclose(state.v[0], [v], rtol=1e-12)
    moved = -0.1 * (m / (1.0 - 0.5**2)) / np.sqrt(v / (1.0 - 0.999**2))
    np.testing.assert_allclose(p.data - first, [moved], rtol=1e-6)  # about -0.047


def test_adam_bit_identical_across_runs(rng):
    def run():
        r = np.random.default_rng(7)
        p = Tensor(r.normal(size=(3, 3)), requires_grad=True)
        state = AdamState([p])
        for _ in range(5):
            p.grad = r.normal(size=(3, 3))
            adam_step(state, lr=2e-4)
        return p.data.copy(), state.m[0].copy(), state.v[0].copy()

    p1, m1, v1 = run()
    p2, m2, v2 = run()
    assert np.array_equal(p1, p2) and np.array_equal(m1, m2) and np.array_equal(v1, v2)


@pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf"), float("-inf")])
def test_adam_rejects_non_positive_or_non_finite_lr(lr):
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.ones(2)
    state = AdamState([p])
    with pytest.raises(ParameterError, match="finite positive"):
        adam_step(state, lr=lr)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert state.t == 0


def test_adam_shape_mismatch():
    p = Tensor(np.zeros(3), requires_grad=True)
    p.grad = np.zeros(4)
    with pytest.raises(ShapeError):
        adam_step(AdamState([p]), lr=0.1)


def test_zero_grads():
    p = Tensor(np.zeros(3), requires_grad=True)
    p.grad = np.ones(3)
    zero_grads([p])
    assert p.grad is None


# -- checkpoint format -------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    named = {
        "gen.enc0.w": rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
        "gen.enc0.b": rng.normal(size=4).astype(np.float32),
        "disc_x.head.w": rng.normal(size=(1, 4, 3, 3)).astype(np.float32),
    }
    path = tmp_path / "model.fatw"
    save_tensors(path, named)
    loaded = load_tensors(path)
    assert list(loaded) == list(named)
    for key in named:
        assert np.array_equal(loaded[key], named[key])
    save_tensors(tmp_path / "again.fatw", loaded)
    assert (tmp_path / "again.fatw").read_bytes() == path.read_bytes()


def test_checkpoint_header_layout(tmp_path):
    path = tmp_path / "one.fatw"
    save_tensors(path, {"w": np.zeros((2, 3), dtype=np.float32)})
    blob = path.read_bytes()
    assert blob[:4] == b"FATW"
    assert blob[4:6] == (1).to_bytes(2, "little")
    assert blob[6:10] == (1).to_bytes(4, "little")
    assert blob[10:12] == (1).to_bytes(2, "little")  # name length
    assert blob[12:13] == b"w"
    assert blob[13] == 2  # rank
    assert len(blob) == 14 + 8 + 4 * 6


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.fatw"
    path.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(FormatError, match="byte 0"):
        load_tensors(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "model.fatw"
    save_tensors(path, {"w": np.zeros(5, dtype=np.float32)})
    (path).write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError):
        load_tensors(path)


def test_checkpoint_truncated_inside_a_name_names_the_end(tmp_path):
    path = tmp_path / "model.fatw"
    save_tensors(path, {"gen.enc0.w": np.zeros((2, 3), dtype=np.float32)})
    path.write_bytes(path.read_bytes()[:17])
    with pytest.raises(FormatError) as caught:
        load_tensors(path)
    assert str(caught.value) == f"{path}: truncated tensor name at byte 17 (10 bytes from 12)"


def test_checkpoint_repeated_name_is_rejected(tmp_path):
    # two one-float records named "a"; the second starts at byte 10 + 12
    record = struct.pack("<H", 1) + b"a" + struct.pack("<BI", 1, 1)
    path = tmp_path / "twice.fatw"
    path.write_bytes(b"FATW" + struct.pack("<HI", 1, 2) + record + struct.pack("<f", 1.0)
                     + record + struct.pack("<f", 2.0))
    with pytest.raises(FormatError) as caught:
        load_tensors(path)
    assert str(caught.value) == f"{path}: repeated tensor name 'a' in the record at byte 22"
