"""qdlab: the quantum dilogarithm over R x Z/NZ and its state-integral lab.

Modules:
    lca           arithmetic and characters of A_N = R (+) Z/NZ
    faddeev       Faddeev's quantum dilogarithm Phi_theta
    qdilog        D_theta over A_N, inversion, Fourier transformation formula
    charged       charged functions, transform identities, weight kernels
    pentagon      five-term identity checks and charge transfer
    triangulation shaped triangulations, Pachner moves, census
    partition     Boltzmann weights and the state-integral Z(X)
    wgz           Weil-Gel'fand-Zak transform and conjugated operators
    groupoid      exact Ptolemy-groupoid coordinate algebra
    checks        each verification's sampler, evaluator and limits, defined once
    cli           command-line interface
"""

__version__ = "0.1.0"
