import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rl.dqn import MASKED_Q, DQNAgent, DQNConfig
from repro.rl.env import AllocationEnv
from repro.tatim.exact import branch_and_bound
from repro.tatim.generators import random_instance


@pytest.fixture
def small_env():
    return AllocationEnv(random_instance(6, 2, seed=5))


class TestConfig:
    def test_defaults_valid(self):
        DQNConfig()

    def test_invalid_gamma(self):
        with pytest.raises(ConfigurationError):
            DQNConfig(gamma=2.0)

    def test_empty_hidden_rejected(self):
        with pytest.raises(ConfigurationError):
            DQNConfig(hidden_sizes=())


class TestActing:
    def test_act_respects_feasible_mask(self, small_env):
        agent = DQNAgent(small_env.state_dim, small_env.n_actions, seed=0)
        state = small_env.reset()
        feasible = np.array([2, 5])
        for _ in range(20):
            assert agent.act(state, feasible) in feasible

    def test_greedy_act_deterministic(self, small_env):
        agent = DQNAgent(small_env.state_dim, small_env.n_actions, seed=0)
        state = small_env.reset()
        feasible = small_env.feasible_actions()
        picks = {agent.act(state, feasible, greedy=True) for _ in range(5)}
        assert len(picks) == 1

    def test_no_feasible_actions_raises(self, small_env):
        agent = DQNAgent(small_env.state_dim, small_env.n_actions, seed=0)
        with pytest.raises(ConfigurationError):
            agent.act(small_env.reset(), np.array([], dtype=int))


class TestTraining:
    def test_warmup_returns_none(self, small_env):
        agent = DQNAgent(
            small_env.state_dim,
            small_env.n_actions,
            DQNConfig(warmup_transitions=1000),
            seed=0,
        )
        agent.train_episode(small_env)
        assert agent.train_step() is None

    def test_epsilon_decays(self, small_env):
        agent = DQNAgent(small_env.state_dim, small_env.n_actions, seed=0)
        start = agent.epsilon
        agent.train(small_env, 10)
        assert agent.epsilon < start

    def test_solve_is_feasible(self, small_env):
        agent = DQNAgent(small_env.state_dim, small_env.n_actions, seed=0)
        agent.train(small_env, 30)
        allocation = agent.solve(small_env)
        assert allocation.is_feasible(small_env.problem)

    def test_reaches_optimum_on_small_instance(self):
        """DQN with masking recovers the exact optimum on a small TATIM."""
        problem = random_instance(8, 2, seed=5)
        env = AllocationEnv(problem)
        agent = DQNAgent(
            env.state_dim,
            env.n_actions,
            DQNConfig(hidden_sizes=(64, 32), warmup_transitions=100),
            seed=0,
        )
        agent.train(env, 400)
        learned = agent.solve(env).objective(problem)
        optimal = branch_and_bound(problem).objective(problem)
        assert learned >= 0.9 * optimal

    def test_masked_q_blocks_infeasible_backup(self, small_env):
        """Infeasible actions never contribute to the Bellman max."""
        agent = DQNAgent(small_env.state_dim, small_env.n_actions, seed=0)
        from repro.rl.replay import Transition, TransitionBatch

        transition = Transition(
            state=small_env.reset(),
            action=0,
            reward=0.0,
            next_state=small_env.reset(),
            done=False,
            next_feasible=np.array([1]),
        )
        batch = TransitionBatch.from_transitions([transition])
        mask = agent._feasible_mask_matrix(batch)
        assert mask[0, 1] == 0.0
        assert mask[0, 0] == MASKED_Q
