"""Test-only views of the modified Dantzig game, written without the payoff
matrix so that the response operators can be checked against them.

``block_matrix(s)`` is a strategy as the density matrix diag(X, diag(y), t[, u]);
``subgame_payoff`` is the payoff of the symmetric subgame on the first n+m+1
blocks.
"""

from __future__ import annotations

import numpy as np

from sdgames.game import Strategy1, payoff
from sdgames.model import SymMat


def block_matrix(s) -> SymMat:
    """diag(X, diag(y), t[, u]) of a block strategy."""
    n = s.X.dim
    scalars = [s.t, s.u] if isinstance(s, Strategy1) else [s.t]
    B = np.diag(np.concatenate([np.zeros(n), s.y, scalars]))
    B[:n, :n] = s.X.array
    return SymMat.from_array(B)


def subgame_payoff(pair, z1, z2) -> float:
    """Payoff of the symmetric subgame: player 1 plays the player-2 strategy z1
    with u = 0, so M drops out."""
    return payoff(pair, 1.0, Strategy1(z1.X, z1.y, z1.t, 0.0), z2)
