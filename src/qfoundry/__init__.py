"""Simulation and verification toolkit for entanglement scenarios.

Modules:

* :mod:`qfoundry.qcore` -- dense states, operators, partial trace, Born rule
* :mod:`qfoundry.hvmodels` -- local and crypto-nonlocal hidden-variable models
* :mod:`qfoundry.inequalities` -- CHSH/Tsirelson, Leggett, KCBS, Hardy, TLM
* :mod:`qfoundry.fock` -- two-mode Fock algebra, beamsplitters, N00N states
* :mod:`qfoundry.popper` -- Gaussian-pair conditional uncertainty
* :mod:`qfoundry.cli` -- scenario runner and acceptance verifier
"""

__version__ = "0.1.0"

from . import fock, hvmodels, inequalities, popper, qcore, report, verify
from .qcore import (
    DensityMatrix,
    MeasurementSetting,
    Observable,
    StateVector,
    expectation,
    fidelity,
    partial_trace,
    singlet,
    spin_observable,
    tensor,
)

__all__ = [
    "__version__",
    "DensityMatrix",
    "MeasurementSetting",
    "Observable",
    "StateVector",
    "expectation",
    "fidelity",
    "fock",
    "hvmodels",
    "inequalities",
    "partial_trace",
    "popper",
    "qcore",
    "report",
    "singlet",
    "spin_observable",
    "tensor",
    "verify",
]
