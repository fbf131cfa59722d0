import math
import warnings

import numpy as np
import pytest

from scenestruct.errors import ConfigError
from scenestruct.nn import Adam, bce_loss, dense_backward, dense_forward, dropout, sigmoid
from scenestruct.nn.optim import CHUNK

from gradcheck import grad_check
from oracles import naive_adam


class TestDenseForward:
    def test_zero_input_returns_bias(self):
        x = np.zeros((2, 3))
        w = np.ones((3, 2))
        b = np.array([1.0, 2.0])
        y = dense_forward(x, w, b)
        assert np.array_equal(y, np.array([[1.0, 2.0], [1.0, 2.0]]))

    def test_identity_weights(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        y = dense_forward(x, np.eye(3), np.zeros(3))
        assert np.array_equal(y, x)

    def test_hand_matrix_multiply(self):
        x = np.array([[1.0, 2.0]])
        w = np.array([[1.0, 1.0], [1.0, -1.0]])
        y = dense_forward(x, w, np.zeros(2))
        assert np.array_equal(y, np.array([[3.0, -1.0]]))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
            dense_forward(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))

    def test_bias_shape_checked(self):
        with pytest.raises(ValueError, match="bias"):
            dense_forward(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(3))


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry_identity(self):
        for x in (-7.3, -1.0, 0.25, 2.0, 11.0):
            assert sigmoid(-x) == pytest.approx(1.0 - sigmoid(x), abs=1e-12)

    def test_closed_form_value(self):
        assert sigmoid(2.0) == pytest.approx(0.8807970779778823, abs=1e-12)
        assert sigmoid(2.0) == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-15)

    def test_no_overflow_at_extremes(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert out[0] == 0.0
        assert out[1] == 1.0

    def test_strictly_monotone(self):
        xs = np.linspace(-20, 20, 201)
        ys = sigmoid(xs)
        assert np.all(np.diff(ys) >= 0)
        assert np.all(np.diff(ys[80:121]) > 0)


class TestBceLoss:
    def test_maximum_entropy_case(self):
        pred = np.full(4, 0.5)
        target = np.array([1.0, 0.0, 1.0, 0.0])
        loss, grad = bce_loss(pred, target)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        assert np.allclose(grad, (pred - target) / 4)

    def test_perfect_prediction(self):
        pred = np.array([1.0 - 1e-9, 1e-9])
        target = np.array([1.0, 0.0])
        loss, _ = bce_loss(pred, target)
        assert loss <= 1e-6

    def test_hand_arithmetic(self):
        loss, grad = bce_loss(np.array([0.8, 0.3]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(0.2899092476264711, abs=1e-12)
        assert grad == pytest.approx(np.array([(0.8 - 1.0) / 2, 0.3 / 2]), abs=1e-12)

    def test_all_masked_raises(self):
        with pytest.raises(ValueError, match="masked"):
            bce_loss(np.array([0.5]), np.array([1.0]), np.array([0.0]))

    def test_mask_excludes_elements(self):
        pred = np.array([0.8, 0.123])
        target = np.array([1.0, 1.0])
        loss, grad = bce_loss(pred, target, np.array([1.0, 0.0]))
        assert loss == pytest.approx(-math.log(0.8), abs=1e-12)
        assert grad[1] == 0.0


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = {"w": np.array([1.0, -2.0])}
        adam = Adam(params, lr=0.01)
        adam.step(params, {"w": np.zeros(2)})
        assert np.array_equal(params["w"], np.array([1.0, -2.0]))

    def test_first_step_is_lr_times_sign(self):
        params = {"w": np.array([0.0, 0.0])}
        adam = Adam(params, lr=0.01)
        adam.step(params, {"w": np.array([3.0, -0.2])})
        assert params["w"] == pytest.approx(np.array([-0.01, 0.01]), rel=1e-6)

    def test_minimizes_quadratic(self):
        # the optimizer is its own oracle against the known optimum at 0
        params = {"w": np.array([1.0])}
        adam = Adam(params, lr=0.01)
        for _ in range(2000):
            adam.step(params, {"w": 2.0 * params["w"]})
            if abs(params["w"][0]) < 0.01:
                break
        assert abs(params["w"][0]) < 0.01

    def test_step_counter_increments(self):
        params = {"w": np.zeros(1)}
        adam = Adam(params)
        for expected in (1, 2, 3):
            adam.step(params, {"w": np.ones(1)})
            assert adam.t == expected

    def test_non_finite_step_is_never_applied(self):
        # lr 1e300 overflows float32: every step is inf or nan
        params = {"fuser.w": np.array([0.5, -1.0], dtype=np.float32),
                  "head.W": np.array([2.0], dtype=np.float32)}
        before = {name: p.copy() for name, p in params.items()}
        adam = Adam(params, lr=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="step of parameter block 'fuser.w'"):
                adam.step(params, {"fuser.w": np.array([1.0, 0.0], dtype=np.float32),
                                   "head.W": np.array([1.0], dtype=np.float32)})
        for name, p in params.items():
            assert np.array_equal(p, before[name])

    def test_non_finite_gradient_names_block(self):
        params = {"head.W": np.zeros(2)}
        adam = Adam(params)
        with pytest.raises(FloatingPointError, match="head.W"):
            adam.step(params, {"head.W": np.array([1.0, np.nan])})

    def test_non_finite_gradient_in_a_later_block_changes_nothing(self):
        params = {"a": np.array([0.5, -1.0]), "b": np.array([2.0])}
        before = {name: p.tobytes() for name, p in params.items()}
        adam = Adam(params, lr=0.01)
        with pytest.raises(FloatingPointError, match="gradient in parameter block 'b'"):
            adam.step(params, {"a": np.array([1.0, 0.0]), "b": np.array([np.nan])})
        for name, p in params.items():
            assert p.tobytes() == before[name], name
            assert not adam.m[name].any() and not adam.v[name].any(), name
        assert adam.t == 0

    def test_non_finite_step_in_a_later_block_changes_no_parameter(self):
        # lr 1e300 gives block 'a' (float64) a finite step and overflows in
        # block 'b' (float32)
        params = {"a": np.array([0.5, -1.0]), "b": np.array([2.0], dtype=np.float32)}
        before = {name: p.tobytes() for name, p in params.items()}
        adam = Adam(params, lr=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="step of parameter block 'b'"):
                adam.step(params, {"a": np.array([1.0, 1.0]),
                                   "b": np.array([1.0], dtype=np.float32)})
        for name, p in params.items():
            assert p.tobytes() == before[name], name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunked_steps_equal_the_whole_array_formula(self, dtype):
        # a block longer than CHUNK and not a multiple of it, and two shorter ones
        shapes = {"lstm.Wx": (3, CHUNK + 1001), "lstm.b": (CHUNK // 2 + 7,), "head.b": (5,)}
        rng = np.random.default_rng(3)
        params = {name: rng.uniform(-0.1, 0.1, size=shape).astype(dtype)
                  for name, shape in shapes.items()}
        grad_steps = [{name: (rng.normal(size=shape) * 10.0 ** rng.integers(-4, 2)).astype(dtype)
                       for name, shape in shapes.items()} for _ in range(4)]
        expected, m, v = naive_adam(params, grad_steps, lr=0.05)
        adam = Adam(params, lr=0.05)
        for grads in grad_steps:
            adam.step(params, grads)
        for name in shapes:
            assert params[name].tobytes() == expected[name].tobytes(), name
            assert adam.m[name].tobytes() == m[name].tobytes(), name
            assert adam.v[name].tobytes() == v[name].tobytes(), name

    def test_step_writes_through_a_non_contiguous_parameter(self):
        base = np.arange(12.0).reshape(3, 4)
        params = {"w": base.T}  # a Fortran-ordered view of base
        grads = {"w": np.linspace(-1.0, 1.0, 12).reshape(4, 3)}
        expected, _m, _v = naive_adam({"w": base.T.copy()}, [grads])
        Adam(params).step(params, grads)
        assert base.T.tobytes() == expected["w"].tobytes()


class TestDropout:
    def test_rate_zero_identity_both_modes(self):
        x = np.arange(6.0).reshape(2, 3)
        for train in (False, True):
            y, mask = dropout(x, 0.0, train, np.random.default_rng(0))
            assert np.array_equal(y, x)
            assert mask is None

    def test_eval_mode_pass_through(self):
        x = np.arange(6.0).reshape(2, 3)
        y, mask = dropout(x, 0.5, False)
        assert y is x
        assert mask is None

    def test_monte_carlo_mean_preserved(self):
        rng = np.random.default_rng(123)
        x = np.ones(100_000)
        y, _ = dropout(x, 0.5, True, rng)
        assert 0.98 <= y.mean() <= 1.02

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            dropout(np.ones(3), 1.0, True, np.random.default_rng(0))


class TestGradCheck:
    def test_linear_layer_squared_loss_is_exact(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 3))
        scale = 1.0 / np.sqrt(3)
        params = {"W": rng.uniform(-scale, scale, size=(3, 2)), "b": np.zeros(2)}
        target = rng.normal(size=(5, 2))

        def loss_fn():
            return float(((dense_forward(x, params["W"], params["b"]) - target) ** 2).sum())

        y = dense_forward(x, params["W"], params["b"])
        _grad_x, grad_w, grad_b = dense_backward(x, params["W"], 2.0 * (y - target))
        err = grad_check(loss_fn, params, {"W": grad_w, "b": grad_b}, eps=1e-6)
        assert err <= 1e-9

    def test_detects_wrong_gradient(self):
        x = np.array([[1.0, 2.0]])
        params = {"W": np.zeros((2, 1)), "b": np.zeros(1)}

        def loss_fn():
            return float(dense_forward(x, params["W"], params["b"]).sum())

        wrong = {"W": np.zeros((2, 1)), "b": np.zeros(1)}
        err = grad_check(loss_fn, params, wrong, eps=1e-6)
        assert err > 0.5
