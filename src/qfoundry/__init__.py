"""Simulation and verification toolkit for entanglement scenarios.

Modules, each imported on its own (``from qfoundry import qcore``):

* :mod:`qfoundry.qcore` -- dense states, operators, partial trace, Born rule
* :mod:`qfoundry.hvmodels` -- local and crypto-nonlocal hidden-variable models
* :mod:`qfoundry.inequalities` -- CHSH/Tsirelson, Leggett, KCBS, Hardy, TLM
* :mod:`qfoundry.fock` -- two-mode Fock algebra, beamsplitters, N00N states
* :mod:`qfoundry.popper` -- Gaussian-pair conditional uncertainty
* :mod:`qfoundry.report` -- deterministic JSON/CSV rendering
* :mod:`qfoundry.verify` -- the acceptance checks
* :mod:`qfoundry.cli` -- scenario runner
"""

__version__ = "0.1.0"

DEFAULT_SEED = 2026  # the RNG seed of every scenario and of verify unless one is given
