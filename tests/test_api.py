"""The package's public names."""
import walksolve


def test_every_exported_name_resolves_once():
    names = walksolve.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(walksolve, name)]
    assert missing == []
