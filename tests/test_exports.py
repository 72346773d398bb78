import gexpkit


def test_every_export_resolves_once():
    missing = [name for name in gexpkit.__all__ if not hasattr(gexpkit, name)]
    assert missing == []
    assert len(gexpkit.__all__) == len(set(gexpkit.__all__))
