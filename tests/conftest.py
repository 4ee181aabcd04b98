from __future__ import annotations

import pytest

from beststop import cached_tree, pattern_class


@pytest.fixture(scope="session")
def tree_for():
    """Shared tree builder: tree_for(name, n) is cached_tree(pattern_class(name), n)."""

    def get(name, n):
        return cached_tree(pattern_class(name), n)

    return get
