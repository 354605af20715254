"""The byte contract: CLI outputs keep the SHA-256 digests in golden.json.

The cases and the regeneration script are in ``make_golden.py``. A digest
changes only with an intended output change; the numpy and scipy versions
that made the digests must be the ones installed.
"""

import json

import pytest
from make_golden import GOLDEN, compute, versions

STORED = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    if STORED["versions"] != versions():
        pytest.fail(f"golden digests were made with {STORED['versions']}, but this run has "
                    f"{versions()}; regenerate them with tests/make_golden.py under the "
                    "new versions, after checking that the outputs are meant to change")
    return compute(str(tmp_path_factory.mktemp("golden")))


def test_golden_cases_match_plan(digests):
    assert sorted(digests) == sorted(STORED["cases"])


@pytest.mark.parametrize("case", sorted(STORED["cases"]))
def test_golden_digest(digests, case):
    assert digests[case] == STORED["cases"][case]
