"""The package's export list matches what it binds, so a deleted class or
function cannot leave a stale name behind."""

import types

import sqdecomp


def test_every_exported_name_resolves():
    for name in sqdecomp.__all__:
        assert hasattr(sqdecomp, name), name


def test_exports_are_sorted_without_repeats():
    assert list(sqdecomp.__all__) == sorted(set(sqdecomp.__all__))


def test_exports_are_exactly_the_public_names():
    public = {
        name
        for name, value in vars(sqdecomp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(sqdecomp.__all__) == public
