import apxcp


def test_public_names_resolve_and_appear_once():
    names = apxcp.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(apxcp, name) is not None, name
