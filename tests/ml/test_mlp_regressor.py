import hashlib

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.ml.mlp_regressor import MLPRegressor


@pytest.fixture
def linear_target(rng):
    X = rng.normal(size=(300, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + 3.0
    return X, y


class TestMLPRegressor:
    def test_fits_linear_target(self, linear_target):
        X, y = linear_target
        model = MLPRegressor(hidden_sizes=(16,), epochs=100, seed=0).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            MLPRegressor().predict([[0.0]])

    def test_warm_start_continues_training(self, linear_target):
        X, y = linear_target
        model = MLPRegressor(hidden_sizes=(16,), epochs=10, warm_start=True, seed=0)
        model.fit(X, y)
        first = model.score(X, y)
        for _ in range(5):
            model.fit(X, y)
        assert model.score(X, y) >= first - 0.05

    def test_cold_start_reinitializes(self, linear_target):
        X, y = linear_target
        model = MLPRegressor(hidden_sizes=(8,), epochs=5, warm_start=False, seed=0)
        model.fit(X, y)
        before = model.network_.get_parameters()[0].copy()
        model.fit(X, y)
        # Re-fit starts from the same seed: parameters equal after equal
        # training, proving reinitialization (warm start would differ).
        after = model.network_.get_parameters()[0]
        assert np.allclose(before, after)


class TestFineTuningClone:
    def test_clone_shares_knowledge_but_not_state(self, linear_target):
        X, y = linear_target
        source = MLPRegressor(hidden_sizes=(16,), epochs=80, seed=0).fit(X, y)
        copy = source.clone_for_finetuning()
        assert np.allclose(copy.predict(X), source.predict(X))
        # Fine-tune the copy on a shifted target; the source is untouched.
        copy.epochs = 40
        copy.fit(X, y + 10.0)
        assert abs(float(np.mean(copy.predict(X) - source.predict(X)))) > 1.0

    def test_finetuning_adapts_to_local_shift(self, linear_target):
        X, y = linear_target
        source = MLPRegressor(hidden_sizes=(16,), epochs=80, seed=0).fit(X, y)
        shifted = y + 5.0
        copy = source.clone_for_finetuning()
        copy.epochs = 60
        copy.fit(X, shifted)
        error = float(np.mean(np.abs(copy.predict(X) - shifted)))
        assert error < 1.0

    def test_clone_requires_fit(self):
        with pytest.raises(NotFittedError):
            MLPRegressor().clone_for_finetuning()


class TestGoldenParameters:
    """SHA-256 of the flat parameter vector after ``fit``.

    Pins the training schedule bitwise: one permutation per epoch, slices
    of ``batch_size`` with a ragged last batch (203 rows / 32), and a
    warm-start refit of a ``clone_for_finetuning`` copy on 45 rows. A
    digest change is a real change in how ``fit`` trains.
    """

    @staticmethod
    def _digest(model: MLPRegressor) -> str:
        return hashlib.sha256(model.network_._flat_params.tobytes()).hexdigest()

    @pytest.fixture
    def fitted(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(203, 6))
        y = np.sin(X @ rng.normal(size=6)) + 0.1 * rng.normal(size=203)
        model = MLPRegressor(hidden_sizes=(16, 8), epochs=7, batch_size=32, seed=3)
        return model.fit(X, y), rng

    def test_ragged_last_batch(self, fitted):
        model, _ = fitted
        assert self._digest(model) == (
            "427eb687b91d350e01e22ae588827a1a93ec10a28d591907b00fbd1bf7cb890d"
        )

    def test_warm_start_refit(self, fitted):
        model, rng = fitted
        tuned = model.clone_for_finetuning()
        X = rng.normal(size=(45, 6))
        tuned.fit(X, np.cos(X[:, 0]) + X[:, 1])
        assert self._digest(tuned) == (
            "926230a6fc594cbe7af221d863d3e115ba55be61f929cdf396418d03efd391ee"
        )
        # The source network is untouched by the copy's refit.
        assert self._digest(model) == (
            "427eb687b91d350e01e22ae588827a1a93ec10a28d591907b00fbd1bf7cb890d"
        )
