import json

import numpy as np
import pytest

from gilt.arrayfile import read_arrays, write_arrays

MAGIC = b"TEST"


def arrays():
    rng = np.random.default_rng(0)
    return {"f4": rng.standard_normal((3, 5)).astype("<f4"),
            "f8": rng.standard_normal(7),
            "i8": np.arange(-2, 4, dtype="<i8").reshape(2, 3),
            "scalar": np.array(2.5),
            "empty": np.zeros((0, 4))}


def test_round_trip_keeps_order_dtype_shape_and_bytes(tmp_path):
    want = arrays()
    meta = {"epoch": 3, "nested": {"levels": ["node", "link"]}}
    path = write_arrays(tmp_path / "a.bin", MAGIC, meta, want)
    got_meta, got = read_arrays(path, MAGIC)
    assert got_meta == meta
    assert list(got) == list(want)
    for name, a in want.items():
        assert got[name].dtype == a.dtype and got[name].shape == a.shape
        assert got[name].tobytes() == a.tobytes()
        assert got[name].flags.writeable


def test_layout_is_aligned_and_deterministic(tmp_path):
    a = write_arrays(tmp_path / "a.bin", MAGIC, {"k": 1}, arrays()).read_bytes()
    b = write_arrays(tmp_path / "b.bin", MAGIC, {"k": 1}, arrays()).read_bytes()
    assert a == b
    header_size = int.from_bytes(a[6:10], "little")
    assert (10 + header_size) % 8 == 0
    header = json.loads(a[10:10 + header_size])
    assert header["arrays"][0] == ["f4", "<f4", [3, 5]]
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("dtype", ["<f2", "<i4", "bool", ">f8"])
def test_unsupported_dtype_rejected(tmp_path, dtype):
    with pytest.raises(ValueError, match="unsupported dtype"):
        write_arrays(tmp_path / "a.bin", MAGIC, {}, {"x": np.zeros(2, dtype=dtype)})

