import csv
import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbench.arith import is_probable_prime
from factorbench.errors import GenerationError
from factorbench.primegen import (
    MAX_BITS,
    DatasetSpec,
    FixedGroup,
    RandomGroup,
    Semiprime,
    dataset_spec_from_dict,
    derive_seed,
    generate_dataset,
    load_dataset_spec,
    make_semiprime,
    random_prime,
    random_semiprime,
    read_dataset_csv,
    semiprime_row,
    write_dataset_csv,
)

FIVE_BIT_PRIMES = {17, 19, 23, 29, 31}  # oracle: enumeration of 5-bit primes

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def rarely(draw) -> bool:
    # 5, a middle value: Hypothesis draws the ends of a range more often
    return draw(st.integers(0, 9)) == 5


def mostly(strategy):
    """`strategy`, but any JSON value about one time in ten."""
    return st.integers(0, 9).flatmap(lambda k: JSON_VALUES if k == 5 else strategy)


@st.composite
def spec_groups(draw, fixed):
    """A group object of the right shape, now and then with a value one below
    its minimum, a bit sum off by one, a key dropped or added, or a value of
    the wrong type."""
    group = {"count": draw(st.integers(1, 3)) - rarely(draw)}
    if fixed:
        p_bits = draw(st.integers(2, 9)) - rarely(draw)
        q_bits = draw(st.integers(2, 9)) - rarely(draw)
        group.update(p_bits=p_bits, q_bits=q_bits, n_bits=p_bits + q_bits + rarely(draw))
    else:
        group["max_product_bits"] = draw(st.integers(5, 16)) - rarely(draw)
    if rarely(draw):
        del group[draw(st.sampled_from(sorted(group)))]
    if rarely(draw):
        group["bogus"] = 1
    if rarely(draw):
        group[draw(st.sampled_from(sorted(group)))] = draw(JSON_VALUES)
    return group


@st.composite
def spec_docs(draw):
    doc = {"seed": draw(mostly(st.integers(0, 2**64)))}
    for key, fixed in (("groups", True), ("random_groups", False)):
        if not rarely(draw):
            doc[key] = draw(mostly(st.lists(mostly(spec_groups(fixed)), min_size=1, max_size=3)))
    if rarely(draw):
        del doc["seed"]
    if rarely(draw):
        doc["bogus"] = draw(JSON_VALUES)
    return doc


class TestRandomPrime:
    def test_two_bit(self):
        rng = random.Random(0)
        assert random_prime(2, rng) in {2, 3}

    def test_five_bit_enumeration(self):
        rng = random.Random(1)
        seen = {random_prime(5, rng) for _ in range(60)}
        assert seen <= FIVE_BIT_PRIMES
        assert len(seen) >= 3

    def test_thirty_bit_contract(self):
        rng = random.Random(2)
        for _ in range(10):
            p = random_prime(30, rng)
            assert p.bit_length() == 30
            assert is_probable_prime(p)

    def test_bits_validated(self):
        with pytest.raises(ValueError):
            random_prime(1, random.Random(0))

    @given(st.integers(2, 24), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_exact_width(self, bits, seed):
        p = random_prime(bits, random.Random(seed))
        assert p.bit_length() == bits


class TestRandomSemiprime:
    def test_table_groups(self):
        rng = random.Random(3)
        sp = random_semiprime(5, 35, 40, rng)
        assert sp.n_bits == 40 and {sp.p_bits, sp.q_bits} == {5, 35}
        sp = random_semiprime(20, 20, 40, rng)
        assert sp.n_bits == 40 and sp.p_bits == sp.q_bits == 20 and sp.p != sp.q

    def test_invariants(self):
        rng = random.Random(4)
        for _ in range(20):
            sp = random_semiprime(12, 18, 30, rng)
            assert sp.p * sp.q == sp.n
            assert sp.p <= sp.q
            assert is_probable_prime(sp.p) and is_probable_prime(sp.q)
            assert sp.p.bit_length() == sp.p_bits
            assert sp.q.bit_length() == sp.q_bits
            assert sp.n.bit_length() == sp.n_bits

    def test_unsatisfiable_combination_errors(self):
        # distinct 2-bit primes can only be {2, 3}, whose product has 3 bits,
        # so a 4-bit product is impossible and the resample cap must trip
        message = "^no 4-bit product of distinct 2/2-bit primes after 10000 attempts$"
        with pytest.raises(GenerationError, match=message):
            random_semiprime(2, 2, 4, random.Random(5))

    def test_mismatched_bits_rejected(self):
        with pytest.raises(ValueError):
            random_semiprime(5, 35, 41, random.Random(0))


class TestSemiprimeType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Semiprime(n=15, p=5, q=3, p_bits=3, q_bits=2, n_bits=4)  # unordered
        with pytest.raises(ValueError):
            Semiprime(n=16, p=3, q=5, p_bits=2, q_bits=3, n_bits=4)  # wrong product
        with pytest.raises(ValueError):
            Semiprime(n=15, p=3, q=5, p_bits=2, q_bits=3, n_bits=5)  # wrong bits

    def test_make_semiprime_orders(self):
        sp = make_semiprime(653, 613)
        assert (sp.p, sp.q, sp.n) == (613, 653, 400289)
        assert sp.bit_difference == 0


class TestGenerateDataset:
    def test_count_contract(self):
        spec = DatasetSpec(seed=1, groups=(FixedGroup(3, 5, 35, 40),))
        rows = generate_dataset(spec)
        assert len(rows) == 3
        assert all(r.n_bits == 40 for r in rows)

    def test_determinism(self):
        spec = DatasetSpec(
            seed=9,
            groups=(FixedGroup(4, 10, 20, 30),),
            random_groups=(RandomGroup(5, 40),),
        )
        assert generate_dataset(spec) == generate_dataset(spec)

    def test_seed_changes_output(self):
        g = (FixedGroup(3, 10, 20, 30),)
        a = generate_dataset(DatasetSpec(seed=1, groups=g))
        b = generate_dataset(DatasetSpec(seed=2, groups=g))
        assert a != b

    def test_random_groups_respect_cap(self):
        spec = DatasetSpec(seed=7, random_groups=(RandomGroup(30, 40),))
        rows = generate_dataset(spec)
        assert len(rows) == 30
        assert all(r.n_bits <= 40 for r in rows)
        assert all(r.p != r.q for r in rows)

    def test_seed_53_corpus_generates(self):
        # the random corpus (200 rows under a 70-bit cap) at seed 53 once drew the
        # pair (2, 2), whose only prime is 3, and resampled forever
        rows = generate_dataset(DatasetSpec(seed=53, random_groups=(RandomGroup(200, 70),)))
        assert len(rows) == 200
        assert all(r.n_bits <= 70 and r.p != r.q for r in rows)

    def test_smallest_random_cap(self):
        rows = generate_dataset(DatasetSpec(seed=0, random_groups=(RandomGroup(20, 5),)))
        assert all(r.n_bits <= 5 and r.p != r.q for r in rows)

    def test_random_cap_below_five_rejected(self):
        with pytest.raises(ValueError):
            RandomGroup(1, 4)

    @pytest.mark.parametrize(
        "args, message",
        [((0, 2, 3, 5), "count must be >= 1"), ((1, 1, 4, 5), "prime bit lengths must be >= 2")],
    )
    def test_fixed_group_validated(self, args, message):
        with pytest.raises(ValueError, match=message):
            FixedGroup(*args)

    def test_loose_resampling_is_capped(self):
        message = "^no distinct 2/2-bit primes after 10000 attempts$"
        with pytest.raises(GenerationError, match=message):
            random_semiprime(2, 2, None, random.Random(0))

    def test_fifteen_group_grid(self):
        groups = tuple(
            FixedGroup(2, pb, nb - pb, nb)
            for nb in (40, 50, 60)
            for pb in range(5, nb // 2 + 1, 5)
        )
        assert len(groups) == 15
        rows = generate_dataset(DatasetSpec(seed=0, groups=groups))
        assert len(rows) == 30
        assert all(r.n_bits in (40, 50, 60) for r in rows)

    def test_rows_pinned_across_every_primality_tier(self):
        # prime widths straddle 10**6, each psi_k of the exact test and its upper
        # bound psi_13 (82 bits); the digest was taken before the exact test existed
        widths = ((11, 20), (21, 41), (42, 48), (49, 62), (63, 78), (79, 81), (82, 90))
        spec = DatasetSpec(seed=10, groups=tuple(FixedGroup(3, p, q, p + q) for p, q in widths))
        text = "".join(f"{s.n},{s.p},{s.q}\n" for s in generate_dataset(spec))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f619b18f835b2aa3feaef7f4d9cd7e9a6085cfbb252786caaacbf5cb52a0b97f"
        )


class TestCommittedSpecs:
    SPECS = Path(__file__).resolve().parents[1] / "specs"

    def test_bit_grid(self):
        spec = load_dataset_spec(self.SPECS / "bit_grid.json")
        grid = tuple(
            FixedGroup(10, pb, nb - pb, nb)
            for nb in (40, 50, 60)
            for pb in range(5, nb // 2 + 1, 5)
        )
        assert len(grid) == 15
        assert spec == DatasetSpec(seed=0, groups=grid)

    def test_random_corpus(self):
        spec = load_dataset_spec(self.SPECS / "random_corpus.json")
        assert spec == DatasetSpec(seed=0, random_groups=(RandomGroup(200, 70),))
        rows = generate_dataset(spec)
        assert len(rows) == 200
        assert all(r.n_bits <= 70 and r.p != r.q for r in rows)

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("bit_grid", "74f972f9a83b8e3504a54e7c6242f041391d6209090bb8a67c529c692cb38bfc"),
            ("random_corpus", "8c742dbf84759789e7146dcf97f6dd16e37d7d559958701ade20bf81ce862929"),
        ],
    )
    def test_rows_pinned(self, name, digest):
        # random_corpus pins the random-group path, which no other test pins
        rows = generate_dataset(load_dataset_spec(self.SPECS / f"{name}.json"))
        text = "".join(f"{s.n},{s.p},{s.q}\n" for s in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestSpecParsing:
    def test_roundtrip(self, tmp_path):
        doc = {
            "seed": 42,
            "groups": [{"count": 2, "p_bits": 5, "q_bits": 35, "n_bits": 40}],
            "random_groups": [{"count": 3, "max_product_bits": 50}],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = load_dataset_spec(path)
        assert spec.seed == 42
        assert spec.groups == (FixedGroup(2, 5, 35, 40),)
        assert spec.random_groups == (RandomGroup(3, 50),)

    def test_seed_override(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"seed": 1, "groups": []}))
        assert load_dataset_spec(path, seed_override=99).seed == 99

    def test_bit_sum_validated(self):
        with pytest.raises(ValueError):
            dataset_spec_from_dict(
                {"seed": 1, "groups": [{"count": 1, "p_bits": 5, "q_bits": 35, "n_bits": 41}]}
            )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            dataset_spec_from_dict({"seed": 1, "bogus": []})

    def test_missing_seed_rejected(self):
        with pytest.raises(ValueError):
            dataset_spec_from_dict({"groups": []})

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"seed": True}, "seed"),
            ({"seed": 1.0}, "seed"),
            ({"seed": 0, "groups": {}}, "'groups'"),
            ({"seed": 0, "random_groups": None}, "'random_groups'"),
            ({"seed": 0, "groups": [3]}, "groups[0]"),
            ({"seed": 0, "groups": [{"count": 1, "p_bits": 5, "q_bits": 5}]}, "groups[0]"),
            ({"seed": 0, "random_groups": [{"count": 1, "max_product_bits": 9, "x": 1}]}, "random_groups[0]"),
            ({"seed": 0, "groups": [{"count": 1.5, "p_bits": 5, "q_bits": 5, "n_bits": 10}]}, "groups[0].count"),
            ({"seed": 0, "random_groups": [{"count": False, "max_product_bits": 9}]}, "random_groups[0].count"),
            ({"seed": 0, "random_groups": [{"count": 1, "max_product_bits": 7.5}]}, "random_groups[0].max_product_bits"),
            ([], "must be a JSON object"),
        ],
    )
    def test_malformed_field_named(self, doc, field):
        with pytest.raises(ValueError) as info:
            dataset_spec_from_dict(doc)
        assert field in str(info.value)

    @pytest.mark.parametrize(
        "group, field",
        [
            ({"count": 1, "p_bits": 100000, "q_bits": 5, "n_bits": 100005}, "n_bits"),
            ({"count": 1, "p_bits": 300, "q_bits": 213, "n_bits": 513}, "n_bits"),
            ({"count": 1, "max_product_bits": 100000}, "max_product_bits"),
            ({"count": 1, "max_product_bits": 513}, "max_product_bits"),
        ],
    )
    def test_widths_capped(self, group, field):
        key = "groups" if "n_bits" in group else "random_groups"
        with pytest.raises(ValueError, match=f"{field} must be <= {MAX_BITS}"):
            dataset_spec_from_dict({"seed": 0, key: [group]})

    def test_widest_spec_accepted(self):
        spec = dataset_spec_from_dict(
            {
                "seed": 0,
                "groups": [{"count": 1, "p_bits": 256, "q_bits": 256, "n_bits": MAX_BITS}],
                "random_groups": [{"count": 1, "max_product_bits": MAX_BITS}],
            }
        )
        assert spec.groups == (FixedGroup(1, 256, 256, MAX_BITS),)
        assert spec.random_groups == (RandomGroup(1, MAX_BITS),)

    @given(spec_docs())
    @settings(max_examples=100, deadline=None)
    def test_accepted_specs_generate_and_rejections_are_value_errors(self, doc):
        try:
            spec = dataset_spec_from_dict(doc)
        except ValueError:
            return
        try:
            rows = generate_dataset(spec)
        except GenerationError:
            # documented: 3 is the only 2-bit prime, so (2, 2, 4) cannot be drawn
            assert any((g.p_bits, g.q_bits) == (2, 2) for g in spec.groups)
            return
        assert len(rows) == sum(g.count for g in spec.groups + spec.random_groups)


class TestDatasetCsv:
    def test_roundtrip(self, tmp_path):
        spec = DatasetSpec(seed=3, groups=(FixedGroup(4, 8, 12, 20),))
        rows = generate_dataset(spec)
        path = tmp_path / "data.csv"
        write_dataset_csv(path, rows)
        assert read_dataset_csv(path) == rows
        header = path.read_text().splitlines()[0]
        assert header == "n,p,q,p_bits,q_bits,n_bits"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("221,13,17,4,5", "line 2: expected 6 fields"),
            ("221,13,17,4,5,8,0", "line 2: expected 6 fields"),
            ("2x1,13,17,4,5,8", "line 2: invalid literal"),
            ("256,13,17,4,5,8", r"line 2: p \* q != n"),
            # q = 613 * 653
            ("403891601,1009,400289,10,19,29", "line 2: q = 400289 is not prime"),
            pytest.param(
                ",".join(map(str, semiprime_row(random_semiprime(256, 257, 513, random.Random(0))))),
                "line 2: n_bits must be <= 512, got 513",
                id="n-above-limit",
            ),
            pytest.param(
                "221,13,17,4,5," + "8" * (csv.field_size_limit() + 1),
                "line 2: field larger than field limit",
                id="oversized-field",
            ),
        ],
    )
    def test_malformed_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "data.csv"
        path.write_text(f"n,p,q,p_bits,q_bits,n_bits\n{row}\n")
        with pytest.raises(ValueError, match=message):
            read_dataset_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "x", 2) == derive_seed(1, "x", 2)
        assert derive_seed(1, "x", 2) != derive_seed(1, "x", 3)
        assert derive_seed(1, "x", 2) != derive_seed(2, "x", 2)

    def test_64_bit_range(self):
        assert 0 <= derive_seed(123, "anything") < 2**64
