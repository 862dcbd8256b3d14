"""Oracle input states built from the photons' internal states, for the tests."""

import numpy as np

from triphoton.modes import InternalState, gram_matrix
from triphoton.oracle import FockState, expand_from_vectors


def vectors_from_gram(g: np.ndarray) -> np.ndarray:
    """Orthonormal-basis coefficient vectors reproducing the Gram matrix ``g``.

    Rank-deficient Gram matrices are truncated to their numerical rank.
    """
    vals, vecs = np.linalg.eigh(np.asarray(g, dtype=complex))
    keep = vals > max(1e-12, 1e-12 * vals.max())
    return vecs[:, keep] * np.sqrt(vals[keep])[None, :]


def expand_inputs(
    states: list[InternalState], input_modes: list[int], *, n_modes: int | None = None
) -> FockState:
    """Expand photons with the given internal states into a Fock state."""
    if n_modes is None:
        n_modes = max(input_modes) + 1
    return expand_from_vectors(vectors_from_gram(gram_matrix(states).entries), input_modes, n_modes)
