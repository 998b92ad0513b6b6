import pytest

from gvgraph import FqVector
from helpers import from_rank, hamming_distance, rank, support


def test_validation():
    with pytest.raises(ValueError):
        FqVector(2, (0, 2, 1))
    with pytest.raises(ValueError):
        FqVector(1, (0,))
    with pytest.raises(ValueError):
        FqVector(2, ())


def test_weight_and_support():
    v = FqVector(3, (0, 2, 0, 1))
    assert support(v) == {2, 4}
    assert FqVector(3, (0,) * 4).is_zero
    assert not v.is_zero


def test_rank_roundtrip_and_order():
    for q, n in ((2, 5), (3, 3), (5, 2)):
        vecs = [from_rank(q, n, r) for r in range(q**n)]
        assert [rank(v) for v in vecs] == list(range(q**n))
        assert vecs == sorted(vecs, key=lambda v: v.digits)
    # digit 1 is the most significant: 100 > 011 as base-2 numbers
    assert rank(FqVector(2, (0, 1, 1))) == 3
    assert rank(FqVector(2, (1, 0, 0))) == 4


def test_arithmetic():
    u = FqVector(3, (1, 2, 0))
    v = FqVector(3, (2, 2, 1))
    assert hamming_distance(u, v) == 2


def test_str_forms():
    assert str(FqVector(2, (0, 1, 1))) == "011"
    assert str(FqVector(11, (10, 0, 3))) == "10 0 3"
