"""Random delay x polarisation product states for the tests."""

import numpy as np

from triphoton.modes import GaussianTemporalMode, InternalState, PolarizationState


def random_product_states(rng: np.random.Generator, n: int) -> list[InternalState]:
    """``n`` states with delays uniform in [-1.5, 1.5] (sigma 1) and random polarisations."""
    states = []
    for _ in range(n):
        t = float(rng.uniform(-1.5, 1.5))
        pol = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pol = pol / np.linalg.norm(pol)
        states.append(
            InternalState(
                GaussianTemporalMode(t, 1.0),
                PolarizationState(complex(pol[0]), complex(pol[1])),
            )
        )
    return states
