from __future__ import annotations

import pytest

from beststop import pattern_class
from beststop.prefixtree import build


@pytest.fixture(scope="session")
def tree_for():
    """Tree builder by class name: tree_for(name, n) is build(pattern_class(name), n),
    a fresh tree on every call."""

    def get(name, n):
        return build(pattern_class(name), n)

    return get
