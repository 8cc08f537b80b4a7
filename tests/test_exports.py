import skattr


def test_every_exported_name_resolves():
    missing = [name for name in skattr.__all__ if not hasattr(skattr, name)]
    assert missing == []
