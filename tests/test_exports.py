"""The package's public names."""

import charzeta


def test_every_export_resolves_once():
    assert len(set(charzeta.__all__)) == len(charzeta.__all__)
    missing = [name for name in charzeta.__all__ if not hasattr(charzeta, name)]
    assert missing == []
