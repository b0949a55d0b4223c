import importlib

import pytest


@pytest.mark.parametrize("module", ["swapkd", "swapkd.metrics", "swapkd.optimize", "swapkd.rates"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
