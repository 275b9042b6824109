"""Every result record is an immutable value: its fields cannot be
assigned, equal field values give equal records with equal hashes, and its
repr reads Name(field=value, ...)."""

from fractions import Fraction

import pytest

from centralleaf.affine import (element, enumerate_sigma_classes, kottwitz,
                                newton_point)
from centralleaf.isocrystal import is_completely_slope_divisible
from centralleaf.lattices import adlv_points
from centralleaf.leaves import cross_check_dimension, leaf_report
from centralleaf.rootdata import build_classical, present_quotient
from centralleaf.slopes import MonomialIsocrystal, RationalIsocrystal, standard_rep
from centralleaf.witt import (NilpotentPolyRing, ZModRing, display_check,
                              display_from_element, witt, witt_add)

from oracles import decent_representative

GL2 = build_classical("GL", 2)
SWAP = ((0, 1), (1, 0))


def _x():
    return element(GL2, (1, 0), SWAP)


def _census():
    return adlv_points(MonomialIsocrystal(2, (1, 0), (1, 0)), (1, 0), 2, 1)


def _display():
    return display_from_element(MonomialIsocrystal(2, (0, 1), (0, -1)), 2)


# record name -> a call that builds a fresh instance with the same values
RECORDS = {
    "AffineElement": _x,
    "NewtonPoint": lambda: newton_point(_x()),
    "KottwitzClass": lambda: kottwitz(_x()),
    "DecentLift": lambda: decent_representative(_x()),
    "SigmaClassPartition": lambda: enumerate_sigma_classes(GL2, 0),
    "MonomialIsocrystal": lambda: MonomialIsocrystal(2, (1, 0), (1, 0), 2),
    "RationalIsocrystal": lambda: RationalIsocrystal(((0, 1), (2, 0)), 2),
    "WeightedRep": lambda: standard_rep(GL2),
    "SlopeDivisibilityReport": lambda: is_completely_slope_divisible(
        RationalIsocrystal(((2, 0), (0, 1)), 2)),
    "LatticeModel": lambda: _census().points[0].lattice,
    "ADLVPoint": lambda: _census().points[0],
    "ADLVCensus": _census,
    "LeafReport": lambda: leaf_report(GL2, _x()),
    "CrossCheckRow": lambda: cross_check_dimension(GL2, [_x()]).rows[0],
    "CrossCheckReport": lambda: cross_check_dimension(GL2, [_x()]),
    "CoinvariantLattice": lambda: present_quotient(2, [(1, -1)]),
    "SigmaTable": lambda: build_classical("GL", 2).sigma_table(SWAP),
    "ZModRing": lambda: ZModRing(2, 3),
    "NilpotentPolyRing": lambda: NilpotentPolyRing(2, 3, (2, 3)),
    "WittVector": lambda: witt(ZModRing(2, 3), (1, 0, 5)),
    "DisplayDatum": _display,
    "DisplayReport": lambda: display_check(_display()),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_values(name):
    record, twin = RECORDS[name](), RECORDS[name]()
    assert type(record).__name__ == name and record is not twin
    assert record == twin and hash(record) == hash(twin)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    if name == "AffineElement":
        assert repr(record) == "AffineElement(lambda=(1, 0), w=((0, 1), (1, 0)))"
    else:
        fields = ", ".join(f"{field}={getattr(record, field)!r}" for field in record._fields)
        assert repr(record) == f"{name}({fields})"


def test_rational_isocrystal_freezes_its_entries_to_fractions():
    m = RationalIsocrystal([[4, Fraction(-3, 2)], [0, 1]], 2)
    assert m.matrix == ((4, Fraction(-3, 2)), (0, 1))
    assert type(m.matrix) is tuple and all(type(row) is tuple for row in m.matrix)
    assert all(type(x) is Fraction for row in m.matrix for x in row)
    assert m == RationalIsocrystal(((Fraction(4), Fraction(-3, 2)), (0, 1)), 2)


def test_ring_equality_ignores_the_lift_cache():
    ring = ZModRing(2, 3)
    witt_add(witt(ring, (1, 1)), witt(ring, (1, 0)))
    assert ring._lifts, "witt_add made no lifted ring"
    assert ring == ZModRing(2, 3) and hash(ring) == hash(ZModRing(2, 3))
    assert ring.modulus == 8 and ring._lifts[2] == ZModRing(2, 4)
    assert ring != ZModRing(2, 4) and ring != (2, 3)
    assert NilpotentPolyRing(2, 3, (2,)) != NilpotentPolyRing(2, 3, (3,))
