import inspect

import scarf


def test_all_lists_exactly_the_public_names():
    # a function dropped from the package must leave no stale export behind
    public = {name for name, value in vars(scarf).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(scarf.__all__) == len(set(scarf.__all__))
    assert set(scarf.__all__) == public
