import factorbench


def test_public_names_resolve_once():
    names = factorbench.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(factorbench, name)]
    assert missing == []
