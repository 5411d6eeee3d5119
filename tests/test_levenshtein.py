import numpy as np
import pytest

from carepath.metric import levenshtein, levenshtein_ratio
from helpers import oracle_levenshtein


def test_worked_examples():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("abc", "") == 3
    assert levenshtein("", "") == 0
    assert levenshtein("same", "same") == 0


def test_ratio_examples():
    assert levenshtein_ratio("05", "04") == 0.5
    assert levenshtein_ratio("M", "K") == 1.0
    assert levenshtein_ratio("", "x") == 1.0
    assert levenshtein_ratio("ab", "ab") == 0.0


def test_ratio_rejects_two_empty_strings():
    with pytest.raises(ValueError):
        levenshtein_ratio("", "")


def test_matches_recursive_oracle_on_random_pairs():
    rng = np.random.default_rng(5)
    alphabet = "abcde"
    for _ in range(200):
        a = "".join(alphabet[i] for i in rng.integers(0, 5, size=rng.integers(0, 9)))
        b = "".join(alphabet[i] for i in rng.integers(0, 5, size=rng.integers(0, 9)))
        assert levenshtein(a, b) == oracle_levenshtein(a, b)


def test_symmetry_and_identity():
    rng = np.random.default_rng(6)
    alphabet = "xyz"
    for _ in range(100):
        a = "".join(alphabet[i] for i in rng.integers(0, 3, size=rng.integers(0, 7)))
        b = "".join(alphabet[i] for i in rng.integers(0, 3, size=rng.integers(0, 7)))
        assert levenshtein(a, b) == levenshtein(b, a)
        assert (levenshtein(a, b) == 0) == (a == b)


def test_bounded_by_longer_string():
    assert levenshtein("aaaa", "bb") <= 4
    assert levenshtein_ratio("aaaa", "bb") <= 1.0
