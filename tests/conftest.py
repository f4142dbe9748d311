"""Shared helpers: finite-difference cross-checks used as the
independent oracle for Green-function spot values."""

from greenwell import oracle


def fd_green_probe(family, energy, x_src, probes, n_points, half_width, e_max):
    """FD resolvent column vs closed form, evaluated at snapped nodes.

    Returns a list of (x_node, x_src_node, g_fd) triples, one per probe
    point, with coordinates snapped to the actual grid so the caller
    can evaluate the closed form at identical arguments.
    """
    grid = oracle.GridSpec(half_width, n_points)
    op = oracle.discretize(family, grid, e_max=e_max)
    i_src = op.nearest_index(x_src)
    col = oracle.resolvent_solve(op, energy, i_src)
    out = []
    for x in probes:
        i = op.nearest_index(x)
        out.append((op.node(i), op.node(i_src), col[i]))
    return out


def rel_err(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0
