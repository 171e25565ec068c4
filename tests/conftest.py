import copy

import pytest


def _swap_zeros(s):
    """A copy of ``s`` with its two cone points' labels exchanged.

    ``enumerate_sc`` develops from the corners labelled z1, so on the copy it
    develops from the original z2: its holonomies, negated, must be those
    developed from the original z1.
    """
    z1, z2 = s.zeros()
    swap = {z1: z2, z2: z1}
    out = copy.copy(s)
    out.vertex_class = {e: swap.get(c, c) for e, c in s.vertex_class.items()}
    out.cone_angles = {swap.get(c, c): a for c, a in s.cone_angles.items()}
    return out


@pytest.fixture(scope="session")
def swap_zeros():
    return _swap_zeros
