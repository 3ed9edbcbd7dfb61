"""The package's public names."""

import keymine


def test_every_exported_name_resolves():
    missing = [name for name in keymine.__all__ if not hasattr(keymine, name)]
    assert missing == []
    assert len(set(keymine.__all__)) == len(keymine.__all__)
