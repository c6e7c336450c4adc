import carlemanfp


def test_public_names_resolve():
    missing = [name for name in carlemanfp.__all__ if not hasattr(carlemanfp, name)]
    assert not missing
