"""Rebuild the corner components of a module that own corners outside
their column of the corner matrix, with construct_ideal on that column.
The tests use it to hold construct_ideal to columns whose corners differ
from the component's own.
"""

from stablebetti import (
    CornerSpec,
    MonomialSubmodule,
    SpecError,
    VerificationFailed,
    construct_ideal,
    corner_matrix,
    corner_sequence,
)
from stablebetti.realize_ideal import _corner_text


def _misowned(view) -> list[int]:
    """The 0-based corner components whose own corner set differs from the
    module corners they contribute to, read off the view's tables."""
    out = []
    for h, table in enumerate(view.component_tables):
        shared = {c for c, row in zip(view.corners, view.rows) if row[h]}
        if shared and shared != {c for c, _v in corner_sequence(table)}:
            out.append(h)
    return out


def normalize_module(module: MonomialSubmodule):
    """The module with every corner component that owns corners outside
    its column rebuilt, and the 1-based indices of the rebuilt ones.

    The result must keep the module's corner positions and values and
    satisfy the ownership property; otherwise VerificationFailed.
    """
    if any(f != 0 for f in module.shifts):
        raise SpecError("normalization assumes unshifted components")
    view = corner_matrix(module)
    components = list(module.components)
    rebuilt = _misowned(view)
    for h in rebuilt:
        rows = [i for i, row in enumerate(view.rows) if row[h]]
        sub = CornerSpec(
            module.n,
            tuple(view.corners[i] for i in rows),
            tuple(view.rows[i][h] for i in rows),
        )
        components[h] = construct_ideal(sub).ideal
    result = MonomialSubmodule(module.n, tuple(components))
    view2 = corner_matrix(result)
    after = list(zip(view2.corners, view2.values))
    if after != list(zip(view.corners, view.values)):
        raise VerificationFailed(
            f"normalization moved the corner sequence: {_corner_text(after)}"
        )
    if _misowned(view2):
        raise VerificationFailed("a component still owns corners outside its column")
    return result, tuple(h + 1 for h in rebuilt)
