"""Every solver re-verifies its witness before it returns it.

Each solver module's `is_harmless` is patched to reject every set.  A
solver that skipped its check would then return an unverified witness
instead of raising ReconstructionError.
"""

import pytest

import harmless.cliquewidth
import harmless.nd
import harmless.planar
import harmless.twincover
from harmless import (
    Graph,
    Instance,
    ReconstructionError,
    solve_cliquewidth,
    solve_nd,
    solve_planar,
    solve_twincover,
)

from families import path_expr

P4 = Instance(Graph(4, [(1, 2), (2, 3), (3, 4)]), (2, 2, 2, 2))
P4_EXPR = path_expr(4)[0]

SOLVERS = {
    "nd": (harmless.nd, lambda: solve_nd(P4)),
    "twincover": (harmless.twincover, lambda: solve_twincover(P4, (2, 3))),
    "cliquewidth": (harmless.cliquewidth, lambda: solve_cliquewidth(P4, P4_EXPR)),
    "planar": (harmless.planar, lambda: solve_planar(P4, 2)),  # a yes answer
}


@pytest.mark.parametrize("module, solve", SOLVERS.values(), ids=SOLVERS.keys())
def test_rejected_witness_raises(monkeypatch, module, solve):
    solve()
    monkeypatch.setattr(module, "is_harmless", lambda instance, vertices: False)
    with pytest.raises(ReconstructionError):
        solve()
