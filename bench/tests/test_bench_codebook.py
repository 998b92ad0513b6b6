"""The seeded input generator: deterministic, and distance-preserving by construction."""

import random

import pytest

from codebook import CODEBOOK, disguise, pchk_text, weight_distribution

SMALL = ["hamming-7-4", "ext-hamming-8-4", "quinary-hamming-6-4", "hamming-15-11"]


def test_same_seed_same_file():
    for code in CODEBOOK.values():
        a = pchk_text(code.q, disguise(code, random.Random("s:7")))
        b = pchk_text(code.q, disguise(code, random.Random("s:7")))
        assert a == b
    code = CODEBOOK["golay-24-12"]
    assert disguise(code, random.Random(1)) != disguise(code, random.Random(2))


def test_codebook_shapes():
    for code in CODEBOOK.values():
        assert len(code.parity) == code.n - code.k
        assert all(len(row) == code.n for row in code.parity)


@pytest.mark.parametrize("name", SMALL)
def test_disguise_preserves_weight_distribution(name):
    code = CODEBOOK[name]
    base = weight_distribution(code.q, [list(r) for r in code.parity])
    assert sum(base) == code.size
    assert next(w for w in range(1, code.n + 1) if base[w]) == code.d
    for seed in range(3):
        rows = disguise(code, random.Random(seed))
        assert rows != [list(r) for r in code.parity]
        assert weight_distribution(code.q, rows) == base
