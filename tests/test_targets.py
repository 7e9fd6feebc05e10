"""Target sets: depth, and the exact forms the searches read."""

import numpy as np
import pytest

from nillab.systems import make_fullshift, make_rotation, make_sturmian, sample_points
from nillab.targets import Ball, Cylinder, CylinderUnion

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def test_cylinder_past_the_window_is_refused():
    fsh = make_fullshift(2, L=8)
    P = sample_points(fsh, 1000, seed=0)
    for target in (Cylinder((0,), 9), Cylinder((1,), 9), Cylinder((0, 1), 8),
                   Cylinder((0,), -12), CylinderUnion((((0,), 0), ((1,), -9)))):
        with pytest.raises(ValueError, match="window"):
            target.depth(fsh, P)
    # words inside the window still decide membership symbol by symbol
    inside = Cylinder((1,), 8).depth(fsh, P) > 0
    center = (P.shape[1] - 1) // 2
    assert np.array_equal(inside, P[:, center + 8] == 1)


def test_ball_run_reads_the_center_row():
    fsh = make_fullshift(2, L=8)
    x = sample_points(fsh, 1, seed=4)[0]
    center = (len(x) - 1) // 2
    for radius, reach in ((0.3, 1), (0.05, 4), (2.0 ** -12, 11), (2.0 ** -200, center)):
        offset, symbols = Ball(x, radius).run()
        assert offset == -reach and symbols.dtype == np.int8
        assert np.array_equal(symbols, x[center - reach:center + reach + 1])
    assert Cylinder((1, 0), -3).run()[0] == -3
    assert CylinderUnion((((0,), 0),)).run() is None


def test_arcs_of_balls_and_cylinders():
    rot = make_rotation([GOLDEN])
    arcs = Ball((0.95,), 0.1).arcs(rot.coding).arcs
    assert np.allclose(arcs, [(0.0, 0.05), (0.85, 1.0)])
    stu = make_sturmian(GOLDEN)
    # a cylinder's arc is exactly the set of circle points coding to its word
    arc = Cylinder((0, 1), -1).arcs(stu.coding)
    z = (np.arange(4000) + 0.5) / 4000
    words = stu.coding.symbols_block(z, [-1, 0])
    assert np.array_equal(arc.contains(z), np.all(words == [0, 1], axis=1))
    assert CylinderUnion((((0,), 0),)).arcs(stu.coding) is None
