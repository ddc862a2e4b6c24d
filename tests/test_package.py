import qbdesign


def test_every_public_name_resolves():
    missing = [name for name in qbdesign.__all__ if not hasattr(qbdesign, name)]
    assert missing == []
    assert len(set(qbdesign.__all__)) == len(qbdesign.__all__)
