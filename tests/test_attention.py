"""Landmark embedding, cross-face attention, and attribute transfer."""

import numpy as np
import pytest

from conftest import base_buffer, check_grads, composed_attention, graph_held, graph_ops_and_held_sizes, zero_grads
from fatkit.attention import (
    FatParams,
    color_transform,
    estimate_attributes,
    fat_forward,
    flatten_map,
    landmark_embedding,
    multi_head,
    static_attention,
    transfer_attributes,
    unflatten_map,
)
from fatkit.tensor import ParameterError, ShapeError, Tensor, concat, matmul


def make_params(rng, d=6, heads=2, n=4, estimator="random"):
    return FatParams(d=d, heads=heads, n_landmarks=n, rng=rng, estimator=estimator)


def random_case(rng, d=6, n=4, h=3, w=3):
    lm_x = rng.uniform(0.1, 0.9, size=(n, 2))
    lm_y = rng.uniform(0.1, 0.9, size=(n, 2))
    x = Tensor(rng.normal(size=(d, h, w)))
    y = Tensor(rng.normal(size=(d, h, w)))
    return x, y, landmark_embedding(h, w, lm_x), landmark_embedding(h, w, lm_y)


# -- landmark embedding -----------------------------------------------------------


def test_embedding_zero_row_at_landmark():
    # 2x2 image: pixel centers at 0.25/0.75; landmark exactly on one of them
    emb = landmark_embedding(2, 2, np.array([[0.25, 0.25]]))
    np.testing.assert_array_equal(emb[0], [0.0, 0.0])
    for row in emb[1:]:
        np.testing.assert_allclose(np.linalg.norm(row), 1.0)


def test_embedding_single_landmark_unit_direction():
    emb = landmark_embedding(1, 2, np.array([[0.25, 0.5]]))
    # second pixel center (0.75, 0.5): offset (0.5, 0) normalizes to (1, 0)
    np.testing.assert_allclose(emb[1], [1.0, 0.0])


def test_embedding_translation_invariance(rng):
    for _ in range(10):
        lm = rng.uniform(0.2, 0.6, size=(5, 2))
        shift = rng.uniform(-0.1, 0.1, size=2)
        base = landmark_embedding(4, 4, lm)
        # translating landmarks against pixels changes rows; translating both
        # together must not. Compare one pixel against a direct computation.
        pix = np.array([(0 + 0.5) / 4, (0 + 0.5) / 4])
        row = (pix + shift) - (lm + shift)
        row = row.reshape(-1)
        row = row / np.linalg.norm(row)
        shifted_row = (pix - lm).reshape(-1)
        shifted_row = shifted_row / np.linalg.norm(shifted_row)
        np.testing.assert_allclose(row, shifted_row, atol=1e-9)
        np.testing.assert_allclose(base[0], shifted_row, atol=1e-9)


def test_embedding_rows_unit_or_zero(rng):
    emb = landmark_embedding(5, 7, rng.uniform(size=(6, 2)))
    norms = np.linalg.norm(emb, axis=1)
    assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))


def test_embedding_empty_landmarks():
    with pytest.raises(ParameterError):
        landmark_embedding(4, 4, np.zeros((0, 2)))


# -- attention heads ---------------------------------------------------------------


def reference_attention(x, y, le_x, le_y, w_query, w_ref):
    """One head in plain numpy: softmax((X Wq / sqrt(dk)) (Y Wr)^T) over the reference axis."""
    q = np.concatenate([flatten_map(x).data, le_x], axis=1) @ w_query / np.sqrt(w_query.shape[1])
    k = np.concatenate([flatten_map(y).data, le_y], axis=1) @ w_ref
    logits = q @ k.T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_zero_projections_give_uniform_attention(rng):
    x, y, le_x, le_y = random_case(rng)
    params = make_params(rng, heads=1)
    params.w_query.data[...] = 0.0
    params.w_ref.data[...] = 0.0
    attn = multi_head(flatten_map(x), flatten_map(y), le_x, le_y, params)
    np.testing.assert_allclose(attn.data, 1.0 / 9.0)


def test_single_reference_position(rng):
    x, _, le_x, _ = random_case(rng)
    y1 = Tensor(rng.normal(size=(6, 1, 1)))
    le_y1 = landmark_embedding(1, 1, rng.uniform(size=(4, 2)))
    single = multi_head(flatten_map(x), flatten_map(y1), le_x, le_y1, make_params(rng, heads=1))
    np.testing.assert_allclose(single.data, 1.0)
    mixed = multi_head(flatten_map(x), flatten_map(y1), le_x, le_y1, make_params(rng))
    np.testing.assert_allclose(mixed.data, 1.0)


def test_permuting_reference_permutes_columns(rng):
    x, y, le_x, le_y = random_case(rng)
    params = make_params(rng, heads=1)
    base = multi_head(flatten_map(x), flatten_map(y), le_x, le_y, params).data
    perm = rng.permutation(9)
    yp = Tensor(flatten_map(y).data[perm])
    attn = multi_head(flatten_map(x), yp, le_x, Tensor(le_y[perm]), params).data
    np.testing.assert_allclose(attn, base[:, perm], atol=1e-12)


def test_multi_head_reduces_to_single(rng):
    x, y, le_x, le_y = random_case(rng)
    params = make_params(rng, heads=1)
    merged = multi_head(flatten_map(x), flatten_map(y), le_x, le_y, params)
    single = reference_attention(x, y, le_x, le_y, params.w_query.data, params.w_ref.data)
    np.testing.assert_allclose(merged.data, single, atol=1e-12)


def test_multi_head_identical_heads_collapse(rng):
    x, y, le_x, le_y = random_case(rng)
    params = make_params(rng, heads=2)
    half = params.w_query.data[:, : params.dk]
    params.w_query.data[:, params.dk :] = half
    params.w_ref.data[:, params.dk :] = params.w_ref.data[:, : params.dk]
    merged = multi_head(flatten_map(x), flatten_map(y), le_x, le_y, params)
    single = reference_attention(x, y, le_x, le_y, half, params.w_ref.data[:, : params.dk])
    np.testing.assert_allclose(merged.data, single, atol=1e-12)


def test_rows_stochastic_random_params(rng):
    for _ in range(20):
        x, y, le_x, le_y = random_case(rng)
        params = make_params(rng)
        attn = multi_head(flatten_map(x), flatten_map(y), le_x, le_y, params)
        np.testing.assert_allclose(attn.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(attn.data >= 0.0)


def composed_multi_head(x_flat, y_flat, le_x, le_y, params):
    """`multi_head` built from the general ops, keeping every intermediate."""
    q = matmul(concat([x_flat, Tensor(le_x)], axis=1), params.w_query * (1.0 / np.sqrt(params.dk)))
    keys = matmul(concat([y_flat, Tensor(le_y)], axis=1), params.w_ref)
    return composed_attention(q, keys, params.w_mix)


@pytest.mark.parametrize("heads", [1, 2, 3])
def test_multi_head_equals_the_composed_graph_bit_for_bit(rng, heads):
    # the attention op's values are the identity, and A @ I is A bit for
    # bit, as g @ I is g in the backward
    x, _, le_x, _ = random_case(rng, h=3, w=4)
    _, y, _, le_y = random_case(rng, h=2, w=3)
    params = make_params(rng, heads=heads)
    params.w_mix.data[...] = rng.normal(size=heads)
    leaves = [Tensor(flatten_map(x).data, requires_grad=True), Tensor(flatten_map(y).data, requires_grad=True)]
    leaves += [params.w_query, params.w_ref, params.w_mix]
    g = Tensor(rng.normal(size=(12, 6)))
    runs = []
    for attend in (multi_head, composed_multi_head):
        zero_grads(leaves)
        out = attend(leaves[0], leaves[1], le_x, le_y, params)
        (out * g).sum().backward()
        runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in leaves])
    assert runs[0] == runs[1]


# -- attribute estimation and transfer ----------------------------------------------


def test_estimator_zero_features_zero_attributes(rng):
    params = make_params(rng, d=4)
    params.est1_b = Tensor(np.zeros(4), requires_grad=True)
    params.est2_b = Tensor(np.zeros(8), requires_grad=True)
    out = estimate_attributes(Tensor(np.zeros((4, 5, 5))), params)
    np.testing.assert_array_equal(out.data, 0.0)


def test_estimator_preserves_spatial_shape(rng):
    params = make_params(rng, d=6)
    out = estimate_attributes(Tensor(rng.normal(size=(6, 4, 7))), params)
    assert out.shape == (12, 4, 7)


def test_estimator_shift_equivariance(rng):
    params = make_params(rng, d=3)
    base = rng.normal(size=(3, 8, 8))
    shifted = np.roll(base, 1, axis=2)
    a = estimate_attributes(Tensor(base), params).data
    b = estimate_attributes(Tensor(shifted), params).data
    # interior columns: shifting the input shifts the output identically
    np.testing.assert_allclose(b[:, :, 2:-1], np.roll(a, 1, axis=2)[:, :, 2:-1], atol=1e-10)


def test_transfer_identity_and_uniform(rng):
    gamma = Tensor(rng.normal(size=(5, 8)))
    eye = Tensor(np.eye(5))
    np.testing.assert_allclose(transfer_attributes(eye, gamma).data, gamma.data)
    uniform = Tensor(np.full((5, 5), 0.2))
    out = transfer_attributes(uniform, gamma).data
    np.testing.assert_allclose(out, np.tile(gamma.data.mean(axis=0), (5, 1)), atol=1e-12)


def test_transfer_convex_hull_bound(rng):
    for _ in range(10):
        logits = rng.normal(size=(6, 7))
        attn = np.exp(logits)
        attn /= attn.sum(axis=1, keepdims=True)
        gamma = rng.normal(size=(7, 4))
        out = transfer_attributes(Tensor(attn), Tensor(gamma)).data
        assert np.all(out <= gamma.max(axis=0) + 1e-12)
        assert np.all(out >= gamma.min(axis=0) - 1e-12)


def test_color_transform_cases(rng):
    x = Tensor(rng.normal(size=(4, 3)))
    ident = Tensor(np.concatenate([np.ones((4, 3)), np.zeros((4, 3))], axis=1))
    np.testing.assert_array_equal(color_transform(x, ident).data, x.data)
    const = Tensor(np.concatenate([np.zeros((4, 3)), np.full((4, 3), 0.7)], axis=1))
    np.testing.assert_allclose(color_transform(x, const).data, 0.7)
    half = Tensor(np.full((1, 1), 0.5))
    gam = Tensor(np.array([[2.0, -1.0]]))
    np.testing.assert_allclose(color_transform(half, gam).data, 0.0)


def test_color_transform_shape_error(rng):
    with pytest.raises(ShapeError):
        color_transform(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 5))))


# -- full pass ------------------------------------------------------------------------


def test_fat_forward_self_transfer_identity(rng):
    x, _, le_x, _ = random_case(rng, d=4)
    params = make_params(rng, d=4, estimator="identity")
    out = fat_forward(x, x, le_x, le_x, params)
    np.testing.assert_allclose(out.data, x.data, atol=1e-12)


def test_fat_forward_output_shape(rng):
    x, y, le_x, le_y = random_case(rng, d=6)
    out = fat_forward(x, y, le_x, le_y, make_params(rng, d=6))
    assert out.shape == x.shape


def test_fat_forward_gradients(rng):
    x, y, le_x, le_y = random_case(rng, d=3, n=2, h=4, w=4)
    params = make_params(rng, d=3, heads=2, n=2)
    leaves = [Tensor(x.data, requires_grad=True), Tensor(y.data, requires_grad=True)]
    leaves += params.parameters()

    def f(xv, yv, *_):
        return fat_forward(xv, yv, le_x, le_y, params).sum()

    check_grads(f, leaves, tol=1e-4)


def test_fat_forward_keeps_no_per_head_scores(rng):
    # the attention node recomputes its (k, M, M') scores in the backward,
    # so no closure of the block's graph holds an array of that size
    k, m, mp = 2, 16, 9
    x, _, le_x, _ = random_case(rng, h=4, w=4)
    _, y, _, le_y = random_case(rng, h=3, w=3)
    ops, sizes = graph_ops_and_held_sizes(fat_forward(x, y, le_x, le_y, make_params(rng, heads=k)))
    assert "attention" in ops and k * m * mp not in sizes


def test_fat_forward_keeps_no_attention_matrix(rng):
    # the attribute rows are the attention op's values, so the (M, M')
    # matrix is rebuilt in the backward too. The maps are large enough that
    # every other array of the graph, the block's weights included, is
    # smaller than M * M'
    m, mp = 64, 36
    x, _, le_x, _ = random_case(rng, h=8, w=8)
    _, y, _, le_y = random_case(rng, h=6, w=6)
    ops, sizes = graph_ops_and_held_sizes(fat_forward(x, y, le_x, le_y, make_params(rng)))
    assert "attention" in ops and "matmul" in ops and max(sizes) < m * mp


def test_fat_forward_keeps_no_augmented_rows(rng):
    # each projection's matmul keeps the concat's recipe over the features
    # and the landmark embedding, not the (rows, d + 2N) augmented matrix
    d, n = 6, 4
    x, _, le_x, _ = random_case(rng, d=d, n=n, h=4, w=4)
    _, y, _, le_y = random_case(rng, d=d, n=n, h=3, w=3)
    x, y = Tensor(x.data, requires_grad=True), Tensor(y.data, requires_grad=True)
    held = [b for arrays in graph_held(fat_forward(x, y, le_x, le_y, make_params(rng, d=d, n=n))).values()
            for b in arrays]
    assert not {(16, d + 2 * n), (9, d + 2 * n)} & {b.shape for b in held}
    assert any(b is base_buffer(le_x) for b in held) and any(b is base_buffer(le_y) for b in held)


def test_permutation_equivariance_of_transfer(rng):
    # permuting reference rows consistently leaves transferred attributes unchanged
    x, y, le_x, le_y = random_case(rng)
    params = make_params(rng)
    xf, yf = flatten_map(x), flatten_map(y)
    gamma = Tensor(rng.normal(size=(9, 12)))
    base = transfer_attributes(multi_head(xf, yf, le_x, le_y, params), gamma).data
    perm = rng.permutation(9)
    permuted = transfer_attributes(
        multi_head(xf, Tensor(yf.data[perm]), le_x, Tensor(le_y[perm]), params),
        Tensor(gamma.data[perm]),
    ).data
    np.testing.assert_allclose(permuted, base, atol=1e-9)


# -- static attention ---------------------------------------------------------------


def test_static_attention_rows_sum_to_one(rng):
    x, y, le_x, le_y = random_case(rng)
    attn = static_attention(flatten_map(x), flatten_map(y), le_x, le_y)
    np.testing.assert_allclose(attn.data.sum(axis=1), 1.0, atol=1e-9)


def test_static_attention_self_similarity_diagonal(rng):
    for _ in range(10):
        x, _, le_x, _ = random_case(rng)
        attn = static_attention(flatten_map(x), flatten_map(x), le_x, le_x).data
        assert np.array_equal(np.argmax(attn, axis=1), np.arange(9))


# -- flatten/unflatten round trip ------------------------------------------------------


def test_flatten_round_trip(rng):
    x = Tensor(rng.normal(size=(5, 3, 4)))
    back = unflatten_map(flatten_map(x), 3, 4)
    np.testing.assert_array_equal(back.data, x.data)
