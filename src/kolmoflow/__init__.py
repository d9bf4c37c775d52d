"""kolmoflow: spectral verification toolkit for the 3D Kolmogorov flow.

Modules
-------
spectral      Fourier-Galerkin operators, grids, projections, star metric;
              process_map, the one worker pool.
pseudospectra sigma_min machinery, Psi scans, resolvent/Psi bound sweeps.
evolution     propagators, coupled mode evolution, decay fits, alpha=1 suite.
waveop        wave operators D1/D2, intertwining and bound checks.
dns           desk-scale 3D pseudo-spectral solver and the threshold sweep.
cli           configuration, orchestration, reporting.
"""

__version__ = "0.1.0"
