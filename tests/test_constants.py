"""The runtime's SI constants are bit-equal to scipy's, so every artifact
that depends on one is unchanged by where it comes from."""

from scipy import constants

from mwphoton import _constants


def test_exact_si_literals():
    assert _constants.h == constants.h
    assert _constants.k == constants.k
    assert _constants.e == constants.e


def test_derived_constants():
    assert _constants.hbar == constants.hbar
    assert _constants.flux_quantum == constants.physical_constants["mag. flux quantum"][0]
