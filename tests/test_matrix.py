import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit.matrix import (
    FKMX_MAGIC,
    FkmxFormatError,
    Matrix,
    NotFiniteError,
    ShapeError,
    dump_fkmx,
    load_fkmx,
    parse_fkmx,
    save_fkmx,
)


def test_constructor_validates_shape_and_content():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert m.shape == (2, 2)
    with pytest.raises(ShapeError):
        Matrix(np.zeros((0, 3)))
    with pytest.raises(ShapeError):
        Matrix(np.zeros((3, 0)))
    with pytest.raises(ShapeError):
        Matrix(np.zeros(4))
    with pytest.raises(NotFiniteError):
        Matrix([[1.0, float("nan")]])
    with pytest.raises(NotFiniteError):
        Matrix([[float("inf"), 0.0]])


def test_buffer_is_copied_and_read_only():
    src = np.ones((2, 2))
    m = Matrix(src)
    src[0, 0] = 7.0
    assert m.data[0, 0] == 1.0
    with pytest.raises(ValueError):
        m.data[0, 0] = 5.0


def test_equality_is_by_value():
    a = Matrix([[1.0, 2.0]])
    b = Matrix([[1.0, 2.0]])
    c = Matrix([[1.0, 3.0]])
    d = Matrix([[1.0], [2.0]])
    assert a == b
    assert a != c
    assert a != d


def test_fkmx_round_trip_is_bitwise():
    rng = np.random.default_rng(7)
    m = Matrix(rng.standard_normal((13, 5)))
    blob = dump_fkmx(m)
    assert blob.startswith(FKMX_MAGIC)
    assert len(blob) == 4 + 8 + 13 * 5 * 8
    back = parse_fkmx(blob)
    assert back.shape == m.shape
    assert np.array_equal(
        back.data.view(np.uint64), m.data.view(np.uint64)
    ), "payload must survive byte-for-byte"


def test_fkmx_file_round_trip(tmp_path):
    m = Matrix([[1.5, -2.25], [0.0, 3.125]])
    path = tmp_path / "m.fkmx"
    save_fkmx(m, path)
    assert load_fkmx(path) == m


def test_fkmx_rejects_bad_streams():
    good = dump_fkmx(Matrix([[1.0, 2.0]]))
    for blob, message in [
        (b"JUNK" + good[4:], "bad magic b'JUNK', expected b'FKMX'"),
        (good[:-8], "FKMX payload holds 8 bytes, header implies 16"),
        (good + b"\x00" * 8, "FKMX payload holds 24 bytes, header implies 16"),
        (good + b"\x00" * 3, "FKMX payload holds 19 bytes, header implies 16"),
        (good[:6], "FKMX stream shorter than its fixed header"),
        # header declaring an empty shape
        (FKMX_MAGIC + struct.pack("<II", 0, 3),
         "FKMX header declares empty shape 0x3"),
    ]:
        with pytest.raises(FkmxFormatError) as err:
            parse_fkmx(blob)
        assert str(err.value) == message
    # a NaN payload fails matrix validation
    nan_blob = dump_fkmx(Matrix([[1.0]]))
    nan_blob = nan_blob[:-8] + struct.pack("<d", float("nan"))
    with pytest.raises(NotFiniteError):
        parse_fkmx(nan_blob)


def test_parse_fkmx_copies_the_payload_once():
    # a BEV-sized stream: the Matrix's own buffer is the one copy made, so
    # no sliced payload sits beside it (that read peaked at two payloads)
    blob = dump_fkmx(Matrix(np.arange(2500 * 64, dtype=np.float64).reshape(2500, 64)))
    payload = len(blob) - 12
    tracemalloc.start()
    try:
        m = parse_fkmx(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.data.tobytes() == blob[12:]
    assert peak < 1.5 * payload



# ------------------------------------------------- FKMX property tests

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def matrices(draw) -> Matrix:
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    values = draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols))
    return Matrix(np.array(values).reshape(rows, cols))


def parse_or_known_error(blob: bytes) -> Matrix | None:
    # anything outside the three documented error types escapes and fails
    try:
        return parse_fkmx(blob)
    except (FkmxFormatError, NotFiniteError, ShapeError):
        return None


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_fkmx_round_trip_property(m):
    back = parse_fkmx(dump_fkmx(m))
    assert back.shape == m.shape
    assert back.data.tobytes() == m.data.tobytes()


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_fkmx_truncation_is_a_format_error(m, data):
    blob = dump_fkmx(m)
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(FkmxFormatError):
        parse_fkmx(blob[:cut])


@settings(max_examples=200, deadline=None)
@given(matrices(), st.binary(min_size=4, max_size=4).filter(lambda b: b != FKMX_MAGIC))
def test_fkmx_bad_magic_is_a_format_error(m, magic):
    with pytest.raises(FkmxFormatError):
        parse_fkmx(magic + dump_fkmx(m)[4:])


@settings(max_examples=200, deadline=None)
@given(matrices(), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.binary(max_size=16))
def test_fkmx_header_payload_mismatch_is_a_format_error(m, rows, cols, extra):
    payload = dump_fkmx(m)[12:] + extra
    blob = FKMX_MAGIC + struct.pack("<II", rows, cols) + payload
    if rows * cols * 8 == len(payload) and rows and cols:
        back = parse_or_known_error(blob)  # the extra bytes may hold a NaN
        assert back is None or back.data.tobytes() == payload
    else:
        with pytest.raises(FkmxFormatError):
            parse_fkmx(blob)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    st.builds(lambda head, body: FKMX_MAGIC + head + body,
              st.binary(min_size=8, max_size=8), st.binary(max_size=64)),
    st.builds(lambda r, c, body: FKMX_MAGIC + struct.pack("<II", r, c) + body,
              st.integers(0, 4), st.integers(0, 4), st.binary(max_size=128)),
))
def test_fkmx_arbitrary_bytes_raise_only_known_errors(blob):
    m = parse_or_known_error(blob)
    if m is not None:
        assert dump_fkmx(m) == blob
