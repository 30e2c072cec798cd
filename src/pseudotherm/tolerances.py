"""Central numerical tolerances.

Every threshold used by the library lives here so test suites can tighten or
loosen per run.  All values are positive floats; fields mirror the knob they
gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # cond_F of the unit right-eigenvector matrix, sqrt(d sum kappa_i^2) with
    # kappa_i the left-vector norms, above this means defective
    defective_cond: float = 1e8
    # biorthonormalization residual above this also means defective
    defective_residual: float = 1e-6
    # |Im E| below this counts as real when classifying spectra
    spectrum_imag: float = 1e-10
    # metric quality
    pseudo_hermiticity: float = 1e-9
    metric_min_eig: float = 1e-12
    # propagation acceptance (entrywise step-halving change)
    propagation: float = 1e-8
    # reality gates for thermodynamic scalars
    reality: float = 1e-10
    # isentrope solve
    entropy_match: float = 1e-10
    beta_min: float = 1e-6
    beta_max: float = 1e6
    # Gibbs weight allowed in the top 5 basis levels before warning
    tail_mass: float = 1e-8
    # initial levels below this population are dropped from work sums
    population_cutoff: float = 1e-14

    def with_(self, **kw) -> "Tolerances":
        return replace(self, **kw)


DEFAULT = Tolerances()
