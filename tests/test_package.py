import refadapt


def test_every_public_name_resolves_and_is_listed_once():
    names = refadapt.__all__
    assert sorted(set(names)) == sorted(names), "a name is listed twice"
    assert [name for name in names if not hasattr(refadapt, name)] == []
    namespace = {}
    exec("from refadapt import *", namespace)
    assert set(names) <= set(namespace)
