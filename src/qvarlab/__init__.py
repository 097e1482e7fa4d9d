"""Variance-aware readout design for parametrized quantum circuits.

The package covers the full pipeline: dense simulation of small circuits
(circuits, observables), Fisher-information diagnostics and the variance
bound chain (fisher), closed-form optima for a tractable mixture model
(mixture), spin-chain Hamiltonian families (hamiltonians, states), and
least-squares training of measurement eigenvalues and circuit angles
(training) with a CSV-producing command line front end (cli).
"""

__version__ = "0.1.0"

# cli is not imported here: `python -m qvarlab.cli` runs it as __main__, and an
# eager import would load a second copy first
from . import circuits, fisher, hamiltonians, linalg, mixture, observables, states, training
from .circuits import Circuit, apply_circuit, hea, hva_cluster, make_circuit, qcnn, unitary
from .fisher import FisherReport, StateFamily, bound_chain, qfi_spectral
from .mixture import MixtureModel, variance_full, variance_partial
from .observables import ParamObservable, SpectralObservable, expectation, probabilities, variance
from .states import LabeledState, ghz, ground_state, mixture_state, rank2_state
from .training import TrainConfig, TrainResult, TrainSet, make_trainset, train

__all__ = [
    "__version__",
    "Circuit",
    "FisherReport",
    "LabeledState",
    "MixtureModel",
    "ParamObservable",
    "SpectralObservable",
    "StateFamily",
    "TrainConfig",
    "TrainResult",
    "TrainSet",
    "apply_circuit",
    "bound_chain",
    "circuits",
    "cli",
    "expectation",
    "fisher",
    "ghz",
    "ground_state",
    "hamiltonians",
    "hea",
    "hva_cluster",
    "linalg",
    "make_circuit",
    "make_trainset",
    "mixture",
    "mixture_state",
    "observables",
    "probabilities",
    "qcnn",
    "qfi_spectral",
    "rank2_state",
    "states",
    "train",
    "training",
    "unitary",
    "variance",
    "variance_full",
    "variance_partial",
]
