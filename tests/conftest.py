"""Shared fixtures: the worked-example corpus and the game tolerance."""

from __future__ import annotations

import pytest

from sdgames.game import GAME_TOL
from sdgames.generators import example_corpus

import outcome_census


def _corpus_dict():
    return {pair.name: (pair, meta) for pair, meta in example_corpus()}


@pytest.fixture(scope="session")
def corpus():
    return _corpus_dict()


@pytest.fixture(scope="session")
def bounded_pair(corpus):
    return corpus["bounded"][0]


@pytest.fixture(scope="session")
def unbounded_pair(corpus):
    return corpus["unbounded"][0]


@pytest.fixture(scope="session")
def both_infeasible_pair(corpus):
    return corpus["both_infeasible"][0]


@pytest.fixture(scope="session")
def unattained_pair(corpus):
    return corpus["aux_unattained"][0]


@pytest.fixture(scope="session")
def duality_gap_pair(corpus):
    return corpus["duality_gap"][0]


@pytest.fixture(scope="session")
def scaled_pair():
    return outcome_census.scaled_pair()


@pytest.fixture(scope="session")
def game_tol():
    return GAME_TOL
