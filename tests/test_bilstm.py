import numpy as np
import pytest

from scenestruct.nn import BiLstm, SequenceBatch

from gradcheck import grad_check


def random_batch(rng, dim, lengths, dtype=np.float64):
    seqs = [rng.normal(size=(n, dim)).astype(dtype) for n in lengths]
    return SequenceBatch.from_sequences(seqs)


class TestForward:
    def test_zero_params_give_zero_outputs(self):
        # i = sigmoid(0) = 0.5 but g = tanh(0) = 0, so c = 0 and h = 0
        lstm = BiLstm(3, 4, dtype=np.float64)
        for p in lstm.params.values():
            p[...] = 0
        batch = random_batch(np.random.default_rng(0), 3, [5, 2])
        out, _ = lstm.forward(batch)
        assert np.array_equal(out, np.zeros_like(out))

    def test_output_shape_and_block_layout(self):
        lstm = BiLstm(3, 4, dtype=np.float64)
        batch = random_batch(np.random.default_rng(1), 3, [6])
        out, _ = lstm.forward(batch)
        assert out.shape == (1, 6, 8)

    def test_wrong_feature_dim_rejected(self):
        lstm = BiLstm(3, 4)
        batch = random_batch(np.random.default_rng(1), 5, [4])
        with pytest.raises(ValueError, match="dim"):
            lstm.forward(batch)

    def test_zero_length_sequence_rejected(self):
        with pytest.raises(ValueError, match="zero-length"):
            SequenceBatch.from_sequences([np.zeros((0, 3))])

    def test_finite_outputs_on_large_inputs(self):
        lstm = BiLstm(2, 3, dtype=np.float64)
        seqs = [np.full((4, 2), 1e6)]
        out, _ = lstm.forward(SequenceBatch.from_sequences(seqs))
        assert np.all(np.isfinite(out))


def swap_directions(lstm: BiLstm) -> BiLstm:
    """Parameters with fwd and bwd roles exchanged.

    Layers above the first consume [fwd | bwd] blocks of the layer below,
    so their input-weight rows must swap blocks as well.
    """
    swapped = BiLstm(lstm.input_dim, lstm.hidden_dim, dtype=lstm.dtype)
    hd = lstm.hidden_dim
    for layer in range(lstm.num_layers):
        for src, dst in (("fwd", "bwd"), ("bwd", "fwd")):
            for kind in ("Wx", "Wh", "b"):
                value = lstm.params[f"l{layer}_{src}_{kind}"].copy()
                if kind == "Wx" and layer > 0:
                    value = np.concatenate([value[hd:], value[:hd]], axis=0)
                swapped.params[f"l{layer}_{dst}_{kind}"][...] = value
    return swapped


class TestReversalSymmetry:
    def test_reversing_input_swaps_direction_blocks(self):
        rng = np.random.default_rng(5)
        lstm = BiLstm(3, 4, dtype=np.float64, rng=rng)
        x = rng.normal(size=(7, 3))
        out, _ = lstm.forward(SequenceBatch.from_sequences([x]))
        out_rev, _ = swap_directions(lstm).forward(SequenceBatch.from_sequences([x[::-1]]))
        hd = 4
        expected = np.concatenate([out[0, ::-1, hd:], out[0, ::-1, :hd]], axis=1)
        assert out_rev[0] == pytest.approx(expected, abs=1e-12)


class TestPaddingInvariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_outputs_bitwise_invariant_to_padded_values(self, seed):
        rng = np.random.default_rng(seed)
        lstm = BiLstm(3, 4, dtype=np.float64, rng=rng)
        batch = random_batch(rng, 3, [5, 2, 3])
        out_a, _ = lstm.forward(batch)
        noisy = SequenceBatch(batch.data.copy(), batch.lengths.copy())
        noisy.data[~noisy.mask] = rng.normal(size=noisy.data.shape)[~noisy.mask] * 1e6
        out_b, _ = lstm.forward(noisy)
        assert np.array_equal(out_a, out_b)

    def test_gradients_bitwise_invariant_to_padded_values(self):
        rng = np.random.default_rng(11)
        lstm = BiLstm(3, 4, dtype=np.float64, rng=rng)
        batch = random_batch(rng, 3, [5, 2, 3])
        d_out = rng.normal(size=(3, 5, 8)) * batch.mask[:, :, None]

        def grads_for(b):
            lstm.zero_grads()
            _out, cache = lstm.forward(b)
            dx = lstm.backward(cache, d_out)
            return dx, {k: v.copy() for k, v in lstm.grads.items()}

        dx_a, grads_a = grads_for(batch)
        noisy = SequenceBatch(batch.data.copy(), batch.lengths.copy())
        noisy.data[~noisy.mask] = 777.0
        dx_b, grads_b = grads_for(noisy)
        assert np.array_equal(dx_a, dx_b)
        for name in grads_a:
            assert np.array_equal(grads_a[name], grads_b[name]), name


class TestGradients:
    @pytest.mark.parametrize("seed", range(6))
    def test_backprop_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        lstm = BiLstm(3, 3, dtype=np.float64, rng=rng)
        batch = random_batch(rng, 3, [4, 2])
        weights = rng.normal(size=(2, 4, 6)) * batch.mask[:, :, None]

        def loss_fn():
            out, _ = lstm.forward(batch)
            return float((out * weights).sum())

        lstm.zero_grads()
        _out, cache = lstm.forward(batch)
        lstm.backward(cache, weights)
        err = grad_check(loss_fn, lstm.params, lstm.grads, eps=1e-6)
        assert err <= 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        lstm = BiLstm(2, 3, dtype=np.float64, rng=rng)
        x = rng.normal(size=(4, 2))
        weights = rng.normal(size=(1, 4, 6))

        def loss_for(data):
            out, _ = lstm.forward(SequenceBatch.from_sequences([data]))
            return float((out * weights).sum())

        _out, cache = lstm.forward(SequenceBatch.from_sequences([x]))
        lstm.zero_grads()
        dx = lstm.backward(cache, weights.copy())
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
        a = BiLstm(3, 4, rng=np.random.default_rng(9))
        b = BiLstm(3, 4, rng=np.random.default_rng(9))
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
