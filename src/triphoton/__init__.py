"""Simulator for quantum interference of partially distinguishable photons.

Exact event probabilities for a few photons in small linear-optical networks,
parameterised by the Gram matrix of the photons' internal states; includes
the collective three-photon phase, a mixed-state extension, a noisy
heralded-source model with threshold-detector cascades, and an independent
brute-force Fock-space oracle.  One builder, ``modes.gram_stack``, makes and
validates the Gram matrices, and one permutation-sum engine,
``interference._columns_distribution``, gives every event probability.
Ideal scans and the noisy simulation alike take a grid's points as arrays
(``experiment.scan_points``), build and validate their ``(P, 3, 3)`` Gram stack
once and hand it to one point model, ``experiment._idler_distribution``, which
calls the engine along the stack's leading point axis.  The closed forms, the
mixed-state trace formulas and the oracle check the engine; the oracle sees
polarisation dependence as an explicit 2m-mode network.  ``mixedstate``,
``oracle`` and ``source.enumerate_terms`` are reference code, imported from
their modules: the package loads the two modules but binds none of the names
they define.  ``modes``, ``interference``, ``source`` and ``experiment`` never
import them, and ``cli`` calls the oracle only for ``validate``.

Every probability depends on the Gram matrix only through its moduli and the
triad phase, so neither the internal states nor a grid's points take a
parameter that only re-phases the photons, such as a carrier frequency.  The
one temporal family is the delayed Gaussian: a recipe, the temporal width
and the scanned delay or collective phase fix each point; the width, one
per run, is the unit of delay.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainError,
    NumericalInconsistency,
    SizeLimit,
    TriadPhaseUndefined,
    TriphotonError,
    UnsupportedModePair,
)
from .experiment import (
    DetectionCascade,
    Preparation,
    ScanResult,
    delay_condition,
    phase_for_theta,
    prepare,
    scan_delays,
    scan_points,
    scan_triad,
    simulate_counts,
    theta_for_phase,
)
from .interference import (
    EventSpec,
    Network,
    balanced_beamsplitter,
    balanced_tritter,
    event_distribution,
    event_probability,
    output_occupations,
    tritter_bunched,
    tritter_p111,
)
from .modes import (
    GaussianTemporalMode,
    GramMatrix,
    InternalState,
    PolarizationState,
    gram_matrix,
    gram_stack,
    overlap,
    qubit_triad_phase,
    temporal_overlap,
    triad_phase,
)
from .source import SourceParams, heralded_ensemble, truncation_deficit

# Loaded so that ``triphoton.mixedstate`` and ``triphoton.oracle`` resolve; their
# names are imported from the modules, never from the package.
from . import mixedstate, oracle
