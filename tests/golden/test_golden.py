"""Every golden payload recomputes to its locked value.

Integers compare exactly and floats within the tolerance written down
in ``corpus.py``; see that module for the rules and how to regenerate.
"""

import pytest

from tests.golden import corpus


@pytest.mark.parametrize("name", corpus.NAMES)
def test_payload_matches_golden(name):
    assert corpus.diff(corpus.load(name), corpus.compute(name)) == []


def test_every_payload_file_is_in_the_corpus():
    on_disk = {p.stem for p in corpus.PAYLOAD_DIR.glob("*.json")}
    assert on_disk == set(corpus.NAMES)


class TestDiff:
    def test_integers_compare_exactly(self):
        assert corpus.diff({"rank": 3}, {"rank": 4})
        assert corpus.diff({"curve": [100, 200]}, {"curve": [100, 201]})

    def test_int_never_matches_float(self):
        assert corpus.diff({"first_disclosure": 800}, {"first_disclosure": 800.0})

    def test_none_never_matches_a_count(self):
        assert corpus.diff({"first_disclosure": None}, {"first_disclosure": 800})

    def test_floats_within_tolerance_match(self):
        value = 0.123456789
        nudged = value * (1 + corpus.FLOAT_RTOL / 10)
        assert corpus.diff({"corr": value}, {"corr": nudged}) == []

    def test_floats_beyond_tolerance_differ(self):
        value = 0.123456789
        moved = value * (1 + corpus.FLOAT_RTOL * 10)
        assert corpus.diff({"corr": value}, {"corr": moved})

    def test_missing_and_extra_keys_differ(self):
        assert corpus.diff({"a": 1}, {})
        assert corpus.diff({}, {"a": 1})
