"""The byte contract: CLI outputs keep the SHA-256 digests in golden.json.

The cases and the regeneration script are in ``make_golden.py``. A digest
changes only with an intended output change; the numpy and scipy versions
that made the digests must be the ones installed.
"""

import json

import pytest
from forking import counted_forks, forks_on
from make_golden import GOLDEN, compute, versions

STORED = json.loads(GOLDEN.read_text())


def _check_versions():
    if STORED["versions"] != versions():
        pytest.fail(f"golden digests were made with {STORED['versions']}, but this run has "
                    f"{versions()}; regenerate them with tests/make_golden.py under the "
                    "new versions, after checking that the outputs are meant to change")


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    _check_versions()
    return compute(str(tmp_path_factory.mktemp("golden")))


# Every case is far below the fork cut-off, so the run above never forks.
# This run lowers the cut-off to one entry per part: every unimodal or
# fixed-mode projection and drawn-matrix write that can split does, in
# three parts, and must keep the same digests.
@pytest.fixture(scope="module")
def forked_digests(tmp_path_factory):
    _check_versions()
    with forks_on(3), counted_forks() as pids:
        digests = compute(str(tmp_path_factory.mktemp("golden-forked")))
    return digests, len(pids)


def test_golden_cases_match_plan(digests):
    assert sorted(digests) == sorted(STORED["cases"])


@pytest.mark.parametrize("case", sorted(STORED["cases"]))
def test_golden_digest(digests, case):
    assert digests[case] == STORED["cases"][case]


def test_forked_run_forks(forked_digests):
    assert forked_digests[1] > 0


@pytest.mark.parametrize("case", sorted(STORED["cases"]))
def test_golden_digest_forked(forked_digests, case):
    assert forked_digests[0][case] == STORED["cases"][case]
