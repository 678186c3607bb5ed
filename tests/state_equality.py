"""Deep equality of snapshot dicts: values *and* Python types.

Snapshot dicts travel through the pickle codec, so a float where an int
was, or a list where a tuple was, is a different checkpoint even when
``==`` holds.  Arrays must agree in dtype, shape and every element.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def assert_same_state(got: Any, want: Any, path: str = "state") -> None:
    """Raise ``AssertionError`` naming the first differing field."""
    assert type(got) is type(want), \
        f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_same_state(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same_state(a, b, f"{path}[{i}]")
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape, \
            f"{path}: {got.dtype}{got.shape} != {want.dtype}{want.shape}"
        assert np.array_equal(got, want), f"{path}: array values differ"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"
