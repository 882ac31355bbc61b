"""The package's public surface."""

import amps


def test_every_export_resolves():
    assert len(set(amps.__all__)) == len(amps.__all__)
    missing = [name for name in amps.__all__ if not hasattr(amps, name)]
    assert not missing
