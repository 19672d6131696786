"""Quantum-assisted two-stage stochastic unit commitment.

Subpackages cover the full workflow: the settings, read with the standard
library alone (`config`), a dense statevector simulator (`statevec`),
Walsh/Z-polynomial algebra for diagonal operators (`walsh`), the
unit-commitment Hamiltonian (`ucp`), scenario data and grids (`scenarios`),
adversarial training of the scenario-loading circuit (`qgan`), the
two-stage QAOA solver (`qaoa`), classical reference solutions
(`baselines`), gate-count/depth estimates (`resources`), and the experiment
driver (`cli`).
"""

__version__ = "0.1.0"
