import indicscore


def test_all_names_resolve_without_duplicates():
    missing = [name for name in indicscore.__all__ if not hasattr(indicscore, name)]
    assert missing == []
    assert len(indicscore.__all__) == len(set(indicscore.__all__))
