"""Experience replay for DQN, backed by structure-of-arrays storage.

The push-side API is still one :class:`Transition` at a time, but the
buffer stores columns, not objects: ring-indexed 2-D ``states`` /
``next_states`` matrices, flat ``action`` / ``reward`` / ``done`` arrays,
a ragged per-row feasible-index store, and (when the action-space width
is known) a boolean feasible-mask matrix. Training then gets its batch
matrices from :meth:`ReplayBuffer.sample_batch` by fancy-indexing the
columns — no per-transition ``np.stack`` / ``np.fromiter`` restacking of
32 Python objects per gradient step. :meth:`ReplayBuffer.sample` keeps
the historical list-of-transitions surface (reconstructed as immutable
copies) for drop-in compatibility, and both entry points consume the RNG
identically, so seeded runs are byte-identical whichever one is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.utils.rng import as_rng

#: First allocation of the ring columns; doubled until ``capacity`` so a
#: mostly-empty 50k-capacity buffer doesn't pin tens of MB up front.
_INITIAL_ROWS = 256


@dataclass(frozen=True)
class Transition:
    """One (s, a, r, s', done) tuple plus the next state's feasible actions.

    Feasible actions must be stored because the Bellman backup's
    ``max_a' Q(s', a')`` must range over *legal* actions only — masking at
    training time, not just acting time, is what keeps the learned Q from
    chasing unreachable assignments.
    """

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool
    next_feasible: np.ndarray


@dataclass(frozen=True)
class TransitionBatch:
    """A sampled batch as column matrices, ready for vectorized training.

    ``feasible_mask`` is the boolean (batch, n_actions) legality matrix
    when the buffer knows the action-space width; otherwise ``None`` and
    ``next_feasible`` (the ragged per-row index arrays) is the fallback.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray
    next_feasible: list
    feasible_mask: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.actions.size)

    @classmethod
    def from_transitions(cls, batch: list, n_actions: int | None = None) -> "TransitionBatch":
        """Column-ize a list of transitions."""
        count = len(batch)
        return cls(
            states=np.stack([t.state for t in batch]),
            actions=np.fromiter((t.action for t in batch), dtype=int, count=count),
            rewards=np.fromiter((t.reward for t in batch), dtype=float, count=count),
            next_states=np.stack([t.next_state for t in batch]),
            dones=np.fromiter((t.done for t in batch), dtype=bool, count=count),
            next_feasible=[t.next_feasible for t in batch],
        )


class _SoAStorage:
    """Ring-indexed column store shared by the uniform and prioritized buffers."""

    def __init__(self, capacity: int, n_actions: int | None) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.n_actions = int(n_actions) if n_actions is not None else None
        self._size = 0
        self._cursor = 0
        self._rows = 0
        self._states: np.ndarray | None = None
        self._next_states: np.ndarray | None = None
        self._actions: np.ndarray | None = None
        self._rewards: np.ndarray | None = None
        self._dones: np.ndarray | None = None
        self._feasible: list = []
        self._feasible_mask: np.ndarray | None = None

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    def _allocate(self, state_dim: int, rows: int) -> None:
        self._rows = rows
        self._states = np.empty((rows, state_dim), dtype=float)
        self._next_states = np.empty((rows, state_dim), dtype=float)
        self._actions = np.empty(rows, dtype=int)
        self._rewards = np.empty(rows, dtype=float)
        self._dones = np.empty(rows, dtype=bool)
        self._feasible = [None] * rows
        if self.n_actions is not None:
            self._feasible_mask = np.zeros((rows, self.n_actions), dtype=bool)

    def _grow(self) -> None:
        rows = min(self.capacity, max(self._rows * 2, _INITIAL_ROWS))
        for name in ("_states", "_next_states", "_actions", "_rewards", "_dones"):
            old = getattr(self, name)
            new = np.empty((rows, *old.shape[1:]), dtype=old.dtype)
            new[: self._rows] = old
            setattr(self, name, new)
        self._feasible.extend([None] * (rows - self._rows))
        if self._feasible_mask is not None:
            mask = np.zeros((rows, self.n_actions), dtype=bool)
            mask[: self._rows] = self._feasible_mask
            self._feasible_mask = mask
        self._rows = rows

    def push(self, transition: Transition) -> int:
        """Write one transition; returns the row it landed in."""
        state = np.asarray(transition.state, dtype=float)
        if self._states is None:
            self._allocate(state.size, min(self.capacity, _INITIAL_ROWS))
        elif state.size != self._states.shape[1]:
            raise DataError(
                f"state dim {state.size} != stored dim {self._states.shape[1]}"
            )
        if self._size < self.capacity:
            index = self._size
            if index >= self._rows:
                self._grow()
            self._size += 1
        else:
            index = self._cursor
        self._cursor = (self._cursor + 1) % self.capacity
        self._states[index] = state
        self._next_states[index] = transition.next_state
        self._actions[index] = transition.action
        self._rewards[index] = transition.reward
        self._dones[index] = transition.done
        feasible = np.asarray(transition.next_feasible, dtype=int)
        self._feasible[index] = feasible
        if self._feasible_mask is not None:
            row = self._feasible_mask[index]
            row[:] = False
            row[feasible] = True
        return index

    # ------------------------------------------------------------------
    def gather_batch(self, indices: np.ndarray) -> TransitionBatch:
        return TransitionBatch(
            states=self._states[indices],
            actions=self._actions[indices],
            rewards=self._rewards[indices],
            next_states=self._next_states[indices],
            dones=self._dones[indices],
            next_feasible=[self._feasible[int(i)] for i in indices]
            if self._feasible_mask is None
            else [],
            feasible_mask=self._feasible_mask[indices]
            if self._feasible_mask is not None
            else None,
        )

    def push_columns(
        self, state, action, reward, next_state, done, feasible_mask_row
    ) -> int:
        """Column-direct push for mask-aware storage (the lockstep path).

        Writes the transition fields straight into the ring columns and
        copies the caller's boolean legality row instead of scattering
        index arrays — sampled batches are byte-identical to a
        :meth:`push` of the equivalent :class:`Transition`. The ragged
        ``next_feasible`` side store is left unset for rows written this
        way, so mix with :meth:`gather_transitions` only via the mask.
        """
        state = np.asarray(state, dtype=float)
        if self._states is None:
            self._allocate(state.size, min(self.capacity, _INITIAL_ROWS))
        if self._feasible_mask is None:
            raise DataError("push_columns requires n_actions-aware storage")
        if self._size < self.capacity:
            index = self._size
            if index >= self._rows:
                self._grow()
            self._size += 1
        else:
            index = self._cursor
        self._cursor = (self._cursor + 1) % self.capacity
        self._states[index] = state
        self._next_states[index] = next_state
        self._actions[index] = action
        self._rewards[index] = reward
        self._dones[index] = done
        self._feasible[index] = None
        self._feasible_mask[index] = feasible_mask_row
        return index

    def gather_batch_into(self, indices: np.ndarray, out) -> None:
        """Gather the indexed rows into preallocated column buffers.

        ``out`` is a ``(states, actions, rewards, next_states, dones,
        feasible_mask)`` tuple of arrays shaped like one batch; each
        ``np.take`` lands the same values fancy indexing would, without
        allocating. Only available when the boolean legality matrix is
        maintained (``n_actions`` given).
        """
        if self._feasible_mask is None:
            raise DataError("gather_batch_into requires n_actions-aware storage")
        states, actions, rewards, next_states, dones, feasible_mask = out
        self._states.take(indices, axis=0, out=states)
        self._actions.take(indices, axis=0, out=actions)
        self._rewards.take(indices, axis=0, out=rewards)
        self._next_states.take(indices, axis=0, out=next_states)
        self._dones.take(indices, axis=0, out=dones)
        self._feasible_mask.take(indices, axis=0, out=feasible_mask)

    def gather_transitions(self, indices: np.ndarray) -> list[Transition]:
        """Immutable per-row snapshots (the compatibility surface)."""
        return [
            Transition(
                state=self._states[i].copy(),
                action=int(self._actions[i]),
                reward=float(self._rewards[i]),
                next_state=self._next_states[i].copy(),
                done=bool(self._dones[i]),
                next_feasible=self._feasible[i],
            )
            for i in (int(j) for j in indices)
        ]

    def clear(self) -> None:
        self._size = 0
        self._cursor = 0


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform sampling.

    Parameters
    ----------
    capacity:
        Ring size; old rows are overwritten once full.
    n_actions:
        Optional action-space width. When given, the buffer maintains a
        boolean feasible-mask matrix so :meth:`sample_batch` can hand the
        trainer a ready legality mask instead of ragged index arrays.
    """

    def __init__(self, capacity: int = 50_000, *, n_actions: int | None = None, seed=None) -> None:
        self.capacity = int(capacity)
        self._storage = _SoAStorage(capacity, n_actions)
        self._rng = as_rng(seed)

    def __len__(self) -> int:
        return len(self._storage)

    def push(self, transition: Transition) -> None:
        self._storage.push(transition)

    def push_columns(
        self, state, action, reward, next_state, done, feasible_mask_row
    ) -> None:
        """Column-direct push (see :meth:`_SoAStorage.push_columns`)."""
        self._storage.push_columns(
            state, action, reward, next_state, done, feasible_mask_row
        )

    def _sample_indices(self, batch_size: int) -> np.ndarray:
        """Uniform draw *without replacement* (clamped to the buffer size).

        Sampling with replacement would let one transition appear several
        times in a batch, double-counting its TD error in the gradient
        step; drawing distinct indices keeps each batched update an
        unbiased average over distinct experience.
        """
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        n = len(self._storage)
        if not n:
            raise DataError("cannot sample from an empty replay buffer")
        if n > batch_size:
            return self._rng.choice(n, size=batch_size, replace=False)
        return self._rng.permutation(n)

    def sample(self, batch_size: int) -> list[Transition]:
        """A uniform batch as transition objects (compatibility surface)."""
        return self._storage.gather_transitions(self._sample_indices(batch_size))

    def sample_batch(self, batch_size: int) -> TransitionBatch:
        """A uniform batch as column matrices (the training fast path).

        Consumes the RNG exactly like :meth:`sample`, so seeded runs are
        byte-identical whichever entry point the trainer uses.
        """
        return self._storage.gather_batch(self._sample_indices(batch_size))

    def sample_batch_into(self, batch_size: int, out) -> None:
        """Draw a uniform batch straight into preallocated column buffers.

        RNG consumption and gathered values match :meth:`sample_batch`
        exactly; the cross-agent fused trainer uses this to fill slices
        of its stacked ``(agents, batch, ·)`` arrays without per-agent
        allocations or a later ``np.stack`` copy.
        """
        self._storage.gather_batch_into(self._sample_indices(batch_size), out)

    def clear(self) -> None:
        self._storage.clear()
