"""Simulator for quantum interference of partially distinguishable photons.

Exact event probabilities for a few photons in small linear-optical networks,
parameterised by the Gram matrix of the photons' internal states; includes
the collective three-photon phase, a mixed-state extension, a noisy
heralded-source model with threshold-detector cascades, and an independent
brute-force Fock-space oracle.  Ideal scans and the noisy simulation take
every event probability from one permutation-sum engine,
``interference.columns_distribution``.  The closed forms, the mixed-state
trace formulas and the oracle check it; the oracle sees polarisation
dependence as an explicit 2m-mode network.

Every probability depends on the Gram matrix only through its moduli and the
triad phase, so the preparations take no parameter that only re-phases the
photons: a recipe, the temporal width and the scanned delay or collective
phase fix each point.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainError,
    InvalidSpectrum,
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
    permanent,
    tritter_bunched,
    tritter_p111,
    two_photon_marginals_tritter,
)
from .mixedstate import (
    InternalDensity,
    TemporalBasis,
    build_densities,
    build_density,
    gram_schmidt_temporal,
    mixed_event_probability,
    p111_mixed,
)
from .modes import (
    DelayedSpectralMode,
    GaussianTemporalMode,
    GramMatrix,
    InternalState,
    PolarizationState,
    SampledSpectrum,
    delay_invariance_test,
    gaussian_overlap,
    gram_matrix,
    overlap,
    qubit_triad_phase,
    spectral_overlap,
    temporal_overlap,
    triad_phase,
)
from .oracle import (
    FockState,
    equivalence_report,
    evolve_and_measure,
    expand_from_vectors,
    expand_inputs,
)
from .source import (
    EmissionTerm,
    HeraldedTerm,
    SourceParams,
    enumerate_terms,
    heralded_ensemble,
    truncation_deficit,
)
