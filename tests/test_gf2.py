import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbench.gf2 import BitMatrix, Dependency, XorBasis, eliminate, row_xor_check


def zero_xor_subsets(rows):
    """Oracle: every nonempty subset of rows whose XOR is zero, by enumeration."""
    found = []
    for size in range(1, len(rows) + 1):
        for combo in combinations(range(len(rows)), size):
            acc = 0
            for i in combo:
                acc ^= rows[i]
            if acc == 0:
                found.append(frozenset(combo))
    return found


def random_matrix(rng, max_rows=12, max_cols=8):
    n_rows = rng.randrange(1, max_rows + 1)
    n_cols = rng.randrange(1, max_cols + 1)
    bits = [rng.getrandbits(n_cols) for _ in range(n_rows)]
    return BitMatrix(n_cols, bits)


class TestBitMatrix:
    def test_rejects_bits_beyond_width(self):
        with pytest.raises(ValueError):
            BitMatrix(2, [0b100])

    def test_empty(self):
        assert eliminate(BitMatrix(0, [])) == []

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError, match="n_cols must be non-negative"):
            BitMatrix(-1)


class TestDependency:
    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            Dependency(frozenset())


class TestEliminate:
    def test_duplicate_rows(self):
        deps = eliminate(BitMatrix(2, [0b01, 0b01]))
        assert len(deps) == 1
        assert deps[0].row_indices == frozenset({0, 1})

    def test_identity_is_independent(self):
        m = BitMatrix(3, [0b001, 0b010, 0b100])
        assert eliminate(m) == []

    def test_zero_row_is_its_own_dependency(self):
        deps = eliminate(BitMatrix(2, [0b11, 0b00]))
        assert any(d.row_indices == frozenset({1}) for d in deps)

    def test_input_not_mutated(self):
        m = BitMatrix(2, [0b11, 0b01, 0b10])
        before = list(m.row_bits)
        eliminate(m)
        assert m.row_bits == before

    def test_against_exhaustive_oracle_small(self):
        rng = random.Random(404)
        for _ in range(300):
            n_cols = rng.randrange(1, 5)
            n_rows = rng.randrange(1, 7)
            m = BitMatrix(n_cols, [rng.getrandbits(n_cols) for _ in range(n_rows)])
            deps = eliminate(m)
            oracle = zero_xor_subsets(m.row_bits)
            for dep in deps:
                assert row_xor_check(m, dep)
                assert dep.row_indices in oracle
            assert (len(deps) > 0) == (len(oracle) > 0)

    @given(st.data())
    @settings(max_examples=200)
    def test_soundness_property(self, data):
        n_cols = data.draw(st.integers(1, 10))
        rows = data.draw(st.lists(st.integers(0, 2**n_cols - 1), min_size=1, max_size=14))
        m = BitMatrix(n_cols, rows)
        for dep in eliminate(m):
            assert row_xor_check(m, dep)

    def test_pigeonhole_more_rows_than_cols(self):
        rng = random.Random(77)
        for _ in range(100):
            n_cols = rng.randrange(1, 7)
            n_rows = n_cols + rng.randrange(1, 4)
            m = BitMatrix(n_cols, [rng.getrandbits(n_cols) for _ in range(n_rows)])
            assert len(eliminate(m)) >= 1

    def test_deterministic(self):
        rng = random.Random(9)
        m = random_matrix(rng)
        assert eliminate(m) == eliminate(m)


class TestRowXorCheck:
    def test_examples(self):
        both = BitMatrix(2, [0b11, 0b11])
        assert row_xor_check(both, Dependency(frozenset({0, 1}))) is True
        ident = BitMatrix(2, [0b01, 0b10])
        assert row_xor_check(ident, Dependency(frozenset({0, 1}))) is False

    def test_out_of_range(self):
        m = BitMatrix(2, [0b01])
        with pytest.raises(IndexError):
            row_xor_check(m, Dependency(frozenset({5})))

    def test_roundtrip_with_eliminate(self):
        rng = random.Random(123)
        for _ in range(200):
            m = random_matrix(rng)
            for dep in eliminate(m):
                assert row_xor_check(m, dep)


class TestXorBasis:
    def test_examples(self):
        basis = XorBasis()
        assert basis.add(0b011) is None
        assert basis.add(0b110) is None
        assert basis.add(0b101).row_indices == frozenset({0, 1, 2})
        assert basis.add(0b011).row_indices == frozenset({0, 3})
        assert basis.n_rows == 4

    def test_zero_row_is_its_own_dependency(self):
        basis = XorBasis()
        assert basis.add(0b1) is None
        assert basis.add(0).row_indices == frozenset({1})

    def test_wider_rows_later(self):
        # a row using a column the earlier rows never had
        basis = XorBasis()
        assert basis.add(0b01) is None
        assert basis.add(0b11) is None
        assert basis.add(0b100) is None
        assert basis.add(0b110).row_indices == frozenset({0, 1, 2, 3})

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError):
            XorBasis().add(-1)

    @given(st.data())
    @settings(max_examples=200)
    def test_matches_eliminate_over_growing_batches(self, data):
        # batches of rows, each batch allowed a few more columns than the last
        basis = XorBasis()
        rows, deps, width = [], [], 0
        for _ in range(data.draw(st.integers(1, 5))):
            width += data.draw(st.integers(0, 4))
            for row in data.draw(st.lists(st.integers(0, 2**width - 1), max_size=8)):
                rows.append(row)
                dep = basis.add(row)
                if dep is not None:
                    # it holds the new row, which no earlier dependency does,
                    # so the dependencies stay linearly independent
                    assert max(dep.row_indices) == len(rows) - 1
                    deps.append(dep)
            m = BitMatrix(width, rows)
            for dep in deps:
                assert row_xor_check(m, dep)
            assert len(deps) == len(eliminate(m))
