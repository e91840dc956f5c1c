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

The package itself holds only names that several modules share.
"""

__version__ = "0.1.0"

DEFAULT_SEED = 2026  # the RNG seed of every scenario and of verify unless one is given
# the most samples a popper grid may hold; defined here so that the CLI's
# --points help reads it without loading popper
MAX_GRID_POINTS = 1 << 20


class ModelInconsistentError(ValueError):
    """The crypto-nonlocal model of :mod:`qfoundry.hvmodels` has no valid outcome intervals here.

    Defined here so that the CLI maps it to exit code 3 without loading hvmodels.
    """
