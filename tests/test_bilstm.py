import itertools

import numpy as np
import pytest

from scenestruct.nn import BiLstm, SequenceBatch
from scenestruct.nn.lstm import CELL_BLOCK

import oracles
from conftest import make_lstm, zeros_like_params
from gradcheck import grad_check


def random_batch(rng, dim, lengths, dtype=np.float64):
    seqs = [rng.normal(size=(n, dim)).astype(dtype) for n in lengths]
    return SequenceBatch.from_sequences(seqs)


class TestForward:
    def test_zero_params_give_zero_outputs(self):
        # i = sigmoid(0) = 0.5 but g = tanh(0) = 0, so c = 0 and h = 0
        lstm = make_lstm(3, 4, dtype=np.float64)
        for p in lstm.params.values():
            p[...] = 0
        batch = random_batch(np.random.default_rng(0), 3, [5, 2])
        out, _ = lstm.forward(batch)
        assert np.array_equal(out, np.zeros_like(out))

    def test_output_shape_and_block_layout(self):
        lstm = make_lstm(3, 4, dtype=np.float64)
        batch = random_batch(np.random.default_rng(1), 3, [6])
        out, _ = lstm.forward(batch)
        assert out.shape == (1, 6, 8)

    def test_wrong_feature_dim_rejected(self):
        lstm = make_lstm(3, 4)
        batch = random_batch(np.random.default_rng(1), 5, [4])
        with pytest.raises(ValueError, match="dim"):
            lstm.forward(batch)

    def test_zero_length_sequence_rejected(self):
        with pytest.raises(ValueError, match="zero-length"):
            SequenceBatch.from_sequences([np.zeros((0, 3))])

    def test_finite_outputs_on_large_inputs(self):
        lstm = make_lstm(2, 3, dtype=np.float64)
        seqs = [np.full((4, 2), 1e6)]
        out, _ = lstm.forward(SequenceBatch.from_sequences(seqs))
        assert np.all(np.isfinite(out))


def swap_directions(lstm: BiLstm) -> BiLstm:
    """Parameters with fwd and bwd roles exchanged.

    Layers above the first consume [fwd | bwd] blocks of the layer below,
    so their input-weight rows must swap blocks as well.
    """
    swapped = make_lstm(lstm.input_dim, lstm.hidden_dim, dtype=lstm.dtype)
    hd = lstm.hidden_dim
    for layer in range(lstm.num_layers):
        for src, dst in (("fwd", "bwd"), ("bwd", "fwd")):
            for kind in ("Wx", "Wh", "b"):
                value = lstm.params[f"lstm.l{layer}_{src}_{kind}"].copy()
                if kind == "Wx" and layer > 0:
                    value = np.concatenate([value[hd:], value[:hd]], axis=0)
                swapped.params[f"lstm.l{layer}_{dst}_{kind}"][...] = value
    return swapped


# (input dim, hidden dim, dtype): a tiny float64 net, the shipped shape and the
# paper's segmentation (vis_r50 + length) and tagging (vis_i3 + length) shapes
INFER_SHAPES = [(3, 4, np.float64), (33, 16, np.float32), (2049, 128, np.float32),
                (1025, 128, np.float32)]


class TestInfer:
    @pytest.mark.parametrize("dim, hidden, dtype", INFER_SHAPES)
    def test_each_row_equals_forward_on_that_row_alone(self, dim, hidden, dtype):
        rng = np.random.default_rng(dim)
        lstm = make_lstm(dim, hidden, rng, dtype=dtype)
        # short rows at batch sizes up to 64 (drawn as the loop reaches them),
        # then rows up to 30 steps long
        short = (rng.integers(1, 7, size=b_sz) for b_sz in (1, 7, 64))
        for lengths in itertools.chain(short, ([30], [30, 1, 12, 29, 7])):
            lengths = np.asarray(lengths)
            b_sz = len(lengths)
            batch = random_batch(rng, dim, lengths, dtype=dtype)
            batch.data[~batch.mask] = rng.normal(size=batch.data.shape)[~batch.mask] * 1e6
            out = lstm.infer(batch)
            assert out.shape == (b_sz, lengths.max(), 2 * hidden)
            for row, n in enumerate(lengths):
                alone, _ = lstm.forward(SequenceBatch(batch.data[row : row + 1, :n],
                                                      lengths[row : row + 1]))
                assert np.array_equal(out[row, :n], alone[0]), (b_sz, row)
                assert not out[row, n:].any()

    def test_wrong_feature_dim_rejected(self):
        lstm = make_lstm(3, 4)
        with pytest.raises(ValueError, match="dim"):
            lstm.infer(random_batch(np.random.default_rng(1), 5, [4]))

    def test_non_finite_output_rejected(self):
        lstm = make_lstm(3, 4, dtype=np.float64)
        batch = random_batch(np.random.default_rng(2), 3, [4, 2])
        batch.data[1, 0, 2] = np.nan
        with pytest.raises(FloatingPointError, match="lstm layer 0 output"):
            lstm.infer(batch)


class TestReversalSymmetry:
    def test_reversing_input_swaps_direction_blocks(self):
        rng = np.random.default_rng(5)
        lstm = make_lstm(3, 4, rng, dtype=np.float64)
        x = rng.normal(size=(7, 3))
        out, _ = lstm.forward(SequenceBatch.from_sequences([x]))
        out_rev, _ = swap_directions(lstm).forward(SequenceBatch.from_sequences([x[::-1]]))
        hd = 4
        expected = np.concatenate([out[0, ::-1, hd:], out[0, ::-1, :hd]], axis=1)
        assert out_rev[0] == pytest.approx(expected, abs=1e-12)


# the lengths of the padding tests: short rows, then rows up to 30 steps long
PADDED_LENGTHS = ([5, 2, 3], [30, 1, 17])


def forward_backward(lstm, batch, d_out):
    """The input gradient and parameter gradients of one training pass."""
    grads = zeros_like_params(lstm.params)
    _out, cache = lstm.forward(batch)
    return lstm.backward(cache, d_out, grads), grads


def with_padding(batch, values):
    """A copy of batch whose padded cells hold values."""
    noisy = SequenceBatch(batch.data.copy(), batch.lengths.copy())
    noisy.data[~noisy.mask] = values
    return noisy


class TestPaddingInvariance:
    # padded cells hold large noise, a constant or NaN; no product reads them
    @pytest.mark.parametrize("seed", range(5))
    def test_outputs_bitwise_invariant_to_padded_values(self, seed):
        rng = np.random.default_rng(seed)
        for dim, hidden, dtype in INFER_SHAPES:
            lstm = make_lstm(dim, hidden, rng, dtype=dtype)
            for lengths in PADDED_LENGTHS:
                batch = random_batch(rng, dim, lengths, dtype=dtype)
                out_a, _ = lstm.forward(batch)
                noise = rng.normal(size=batch.data.shape)[~batch.mask] * 1e6
                for values in (noise, np.nan):
                    out_b, _ = lstm.forward(with_padding(batch, values))
                    assert np.array_equal(out_a, out_b), (dim, lengths, values)

    def test_gradients_bitwise_invariant_to_padded_values(self):
        rng = np.random.default_rng(11)
        for dim, hidden, dtype in INFER_SHAPES:
            lstm = make_lstm(dim, hidden, rng, dtype=dtype)
            for lengths in PADDED_LENGTHS:
                batch = random_batch(rng, dim, lengths, dtype=dtype)
                d_out = (rng.normal(size=(len(lengths), max(lengths), 2 * hidden))
                         * batch.mask[:, :, None])
                dx_a, grads_a = forward_backward(lstm, batch, d_out)
                for values in (777.0, np.nan):
                    dx_b, grads_b = forward_backward(lstm, with_padding(batch, values), d_out)
                    assert np.array_equal(dx_a, dx_b), (dim, lengths, values)
                    for name in grads_a:
                        assert np.array_equal(grads_a[name], grads_b[name]), (dim, lengths, name)


def assert_close(got, want, what):
    """got equals want to 1e-12 relative to want's largest magnitude."""
    assert got.shape == want.shape, what
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), what


class TestPackedProducts:
    # a tiny net, the shipped width and the paper's segmentation width;
    # batches mix rows of length 1 and of the padded length, single rows sit
    # on both sides of GEMM_MIN_ROWS, and the last batch holds more valid
    # cells than one weight-gradient block
    @pytest.mark.parametrize("dim, hidden", [(3, 4), (33, 16), (2049, 128)])
    def test_forward_and_gradients_match_the_padded_oracle(self, dim, hidden):
        rng = np.random.default_rng(dim)
        lstm = make_lstm(dim, hidden, rng, dtype=np.float64)
        wide = [1, 20, *rng.integers(1, 21, size=38)]
        assert sum(wide) > CELL_BLOCK
        for lengths in ([7, 1, 4, 7, 2], [1], [3], [6], [1, 5, 5, 3], wide):
            batch = with_padding(random_batch(rng, dim, lengths), np.nan)
            d_out = rng.normal(size=(len(lengths), max(lengths), 2 * hidden))
            out, cache = lstm.forward(batch)
            grads = zeros_like_params(lstm.params)
            dx = lstm.backward(cache, d_out, grads)
            want_out, want_grads, want_dx = oracles.padded_lstm_products(
                lstm.params, batch.data, batch.lengths, d_out, hidden)
            assert_close(out, want_out, (lengths, "output"))
            assert_close(dx, want_dx, (lengths, "dx"))
            assert sorted(grads) == sorted(want_grads)
            for name in grads:
                assert_close(grads[name], want_grads[name], (lengths, name))


class TestInputGradientSkip:
    # the shipped shape at B=32 and the paper's (vis_r50 + length) shape,
    # each with a batch of one row
    @pytest.mark.parametrize("dim, hidden, batch_sizes", [(33, 16, (32, 1)), (2049, 128, (3, 1))])
    def test_parameter_gradients_equal_the_full_backward(self, dim, hidden, batch_sizes):
        rng = np.random.default_rng(dim)
        lstm = make_lstm(dim, hidden, rng)
        for b_sz in batch_sizes:
            lengths = rng.integers(1, 12, size=b_sz)
            batch = random_batch(rng, dim, lengths, dtype=np.float32)
            d_out = rng.normal(size=(b_sz, lengths.max(), 2 * hidden)).astype(np.float32)
            dx, grads = forward_backward(lstm, batch, d_out)
            assert dx.shape == batch.data.shape
            skipped = zeros_like_params(lstm.params)
            _out, cache = lstm.forward(batch)
            assert lstm.backward(cache, d_out, skipped, input_grad=False) is None
            for name in grads:
                assert grads[name].tobytes() == skipped[name].tobytes(), (b_sz, name)


class TestGradients:
    @pytest.mark.parametrize("seed", range(6))
    def test_backprop_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        lstm = make_lstm(3, 3, rng, dtype=np.float64)
        batch = random_batch(rng, 3, [4, 2])
        weights = rng.normal(size=(2, 4, 6)) * batch.mask[:, :, None]

        def loss_fn():
            out, _ = lstm.forward(batch)
            return float((out * weights).sum())

        grads = zeros_like_params(lstm.params)
        _out, cache = lstm.forward(batch)
        lstm.backward(cache, weights, grads)
        err = grad_check(loss_fn, lstm.params, grads, eps=1e-6)
        assert err <= 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        lstm = make_lstm(2, 3, rng, dtype=np.float64)
        x = rng.normal(size=(4, 2))
        weights = rng.normal(size=(1, 4, 6))

        def loss_for(data):
            out, _ = lstm.forward(SequenceBatch.from_sequences([data]))
            return float((out * weights).sum())

        _out, cache = lstm.forward(SequenceBatch.from_sequences([x]))
        dx = lstm.backward(cache, weights.copy(), zeros_like_params(lstm.params))
        eps = 1e-6
        for t in range(4):
            for d in range(2):
                bump = x.copy()
                bump[t, d] += eps
                dip = x.copy()
                dip[t, d] -= eps
                numeric = (loss_for(bump) - loss_for(dip)) / (2 * eps)
                assert numeric == pytest.approx(dx[0, t, d], abs=1e-7)


class TestDeterminism:
    def test_same_seed_same_parameters(self):
        a = make_lstm(3, 4, np.random.default_rng(9))
        b = make_lstm(3, 4, np.random.default_rng(9))
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
