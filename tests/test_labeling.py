import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snowdim import labeling, snowflake
from snowdim.errors import BadParams, HeaderMismatch, SnowdimError
from snowdim.labeling import (LabelSet, dequantize, dls_build, dls_query, dumps_labels,
                              loads_labels, measured_label_bits, quantize,
                              quantization_slack, theory_label_bits)
from snowdim.points import PointSet, generate, normalize
from snowdim.single_scale import loads_coords
from snowdim.snowflake import build_snowflake

EPS = 0.1


@functools.lru_cache(maxsize=None)
def line_embedding(spacing=1.0):
    pts = np.arange(5.0)[:, None] * spacing
    return build_snowflake(normalize(PointSet(pts)), 0.5, EPS, seed=3)


@functools.lru_cache(maxsize=None)
def line_labels():
    return dls_build(line_embedding(), EPS)


# --- the quantizer


def test_quantize_roundtrip():
    rng = np.random.default_rng(11)
    for q in (1.0, 0.25, 1e-3):
        v = rng.normal(size=64) * 5.0
        back = dequantize(quantize(v, q), q)
        assert np.abs(back - v).max() <= q / 2 + 1e-15


def test_quantize_zero_vector():
    ints = quantize(np.zeros(17), 0.01)
    assert ints.dtype == np.int32
    assert not ints.any()


def test_quantize_rejects_overflow_and_bad_step():
    with pytest.raises(BadParams):
        quantize(np.array([1e9]), 1e-9)
    with pytest.raises(BadParams):
        quantize(np.ones(3), 0.0)


# --- building labels


def test_build_header_and_step():
    e = line_embedding()
    ls = line_labels()
    assert ls.n == 5
    assert ls.header.k == e.k
    assert ls.header.alpha == 0.5
    assert ls.header.M == e.plan.M
    assert list(ls.ids) == [0, 1, 2, 3, 4]
    # q = eps * r_ref / 2k for the calibrated coordinates
    r_ref = np.abs(e.coords / e.plan.center).max()
    assert ls.header.q == pytest.approx(EPS * r_ref / (2 * e.k), rel=1e-15)
    # stored integers stay far inside int32
    assert np.abs(ls.ints).max() <= 2 * e.k / EPS + 1


def test_build_validation():
    e = line_embedding()
    with pytest.raises(BadParams):
        dls_build(e, 0.5)
    fake = dataclasses.replace(e, plan=dataclasses.replace(e.plan, norm=1.0))
    with pytest.raises(BadParams):
        dls_build(fake, EPS)


# --- queries


def test_query_identical_labels():
    ls = line_labels()
    assert dls_query(ls.label(2), ls.label(2)) == (0.0, 0.0)


def test_query_symmetry():
    ls = line_labels()
    assert dls_query(ls.label(0), ls.label(3)) == dls_query(ls.label(3),
                                                            ls.label(0))


def test_query_tracks_snowflaked_distance():
    e = line_embedding()
    ls = line_labels()
    src = e.source.distance_matrix()
    for i in range(ls.n):
        for j in range(i + 1, ls.n):
            d_half = math.sqrt(src[i, j])
            est, _ = dls_query(ls.label(i), ls.label(j))
            slack = quantization_slack(ls.header, d_half)
            assert abs(est - d_half) / d_half <= 3 * EPS + slack
            band = (1 + 3 * EPS) * (1 + slack)
            assert 1 / band <= est / d_half <= band


def test_query_original_estimate_denormalizes():
    # spacing 3 makes normalize record scale=3; estimates must come back
    # in the raw units, within the squared snowflaked guarantee
    e = line_embedding(spacing=3.0)
    assert e.source.scale == pytest.approx(3.0)
    ls = dls_build(e, EPS)
    src = e.source.distance_matrix() * e.source.scale
    for i in range(ls.n):
        for j in range(i + 1, ls.n):
            est, est_orig = dls_query(ls.label(i), ls.label(j))
            slack = quantization_slack(ls.header, math.sqrt(src[i, j] / 3.0))
            band = ((1 + 3 * EPS) * (1 + slack)) ** 2
            assert 1 / band <= est_orig / src[i, j] <= band
            assert est_orig == pytest.approx(est ** 2 * 3.0, rel=1e-12)


def test_query_header_mismatch():
    e = line_embedding()
    a = dls_build(e, EPS)
    b = dls_build(e, 0.2)
    with pytest.raises(HeaderMismatch):
        dls_query(a.label(0), b.label(1))


# --- label size accounting


def test_label_bits_within_twice_reference():
    e = line_embedding()
    ls = line_labels()
    measured = measured_label_bits(ls)
    ref = theory_label_bits(e.k, e.source.diameter(), EPS)
    assert ref / 2 <= measured <= 2 * ref


def test_theory_bits_validation():
    with pytest.raises(BadParams):
        theory_label_bits(10, 0.5, EPS)
    with pytest.raises(BadParams):
        theory_label_bits(10, 4.0, 1.5)


# --- serialization


def test_dumps_roundtrip_and_determinism():
    e = line_embedding()
    ls = line_labels()
    blob = dumps_labels(ls)
    assert blob[:4] == b"SNFL"
    assert blob == dumps_labels(dls_build(e, EPS))
    back = loads_labels(blob)
    assert back.header == ls.header
    assert np.array_equal(back.ids, ls.ids)
    assert np.array_equal(back.ints, ls.ints)
    est = dls_query(back.label(1), back.label(4))
    assert est == dls_query(ls.label(1), ls.label(4))


def test_loads_rejects_bad_bytes():
    blob = dumps_labels(line_labels())
    with pytest.raises(HeaderMismatch):
        loads_labels(b"XXXX" + blob[4:])
    with pytest.raises(HeaderMismatch):
        loads_labels(blob[:10])
    with pytest.raises(HeaderMismatch):
        loads_labels(blob[:-3])
    # a k = 0 header would read an 8-byte body as one coordinate-free label
    ls = line_labels()
    zero_k = LabelSet(dataclasses.replace(ls.header, k=0), ls.ids[:1],
                      np.zeros((1, 0), dtype=np.int32))
    with pytest.raises(HeaderMismatch):
        loads_labels(dumps_labels(zero_k))


@pytest.mark.parametrize("field, value", [
    ("q", math.nan), ("q", 0.0), ("q", -1.0), ("scale", -1.0),
    ("alpha", 2.0), ("alpha", 0.0), ("M", math.nan), ("k", 2 ** 31),
], ids=["q-nan", "q-zero", "q-negative", "scale-negative", "alpha-two",
        "alpha-zero", "M-nan", "k-2^31"])
def test_loads_refuses_a_bad_header_field(field, value):
    # each one once read back: q = nan, 0 or -1 gave nan, 0 or a made-up
    # estimate, a negative scale a negative distance, alpha = 0 a
    # ZeroDivisionError and k = 2^31 a numpy ValueError
    blob = dumps_labels(line_labels())
    names = ("magic", "version", "k", "n", "q", "alpha", "M", "scale")
    fields = dict(zip(names, labeling._HEADER.unpack_from(blob, 0)))
    fields[field] = value
    bad = labeling._HEADER.pack(*fields.values()) + \
        blob[labeling._HEADER.size:]
    with pytest.raises(HeaderMismatch, match=f"{field} = |records"):
        loads_labels(bad)


def test_truncated_labels_raise_or_round_trip():
    # the header records the point count, so a cut at a record boundary
    # raises like every other proper prefix; only the whole file parses
    blob = dumps_labels(line_labels())
    for c in range(len(blob)):
        with pytest.raises(HeaderMismatch):
            loads_labels(blob[:c])
    assert dumps_labels(loads_labels(blob)) == blob


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_dumps_and_labels_raise_only_snowdim_errors(data):
    # a snowflake dump or label file cut short, or with up to three bytes
    # flipped, loads cleanly or raises a SnowdimError, never anything else
    load, blob = data.draw(st.sampled_from((
        (loads_coords, snowflake.dumps(line_embedding())),
        (loads_labels, dumps_labels(line_labels())))))
    blob = bytearray(blob)
    if data.draw(st.booleans()):
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    else:
        at = st.integers(0, len(blob) - 1)
        for pos in data.draw(st.lists(at, min_size=1, max_size=3)):
            blob[pos] ^= data.draw(st.integers(1, 255))
    try:
        load(bytes(blob))
    except SnowdimError:
        pass


def test_grid_estimates_cover_all_pairs():
    s = normalize(generate("grid", side=3, dims=2))
    e = build_snowflake(s, 0.5, EPS, seed=5)
    ls = dls_build(e, EPS)
    src = s.distance_matrix()
    iu, ju = np.triu_indices(s.n, k=1)
    worst = 0.0
    for i, j in zip(iu, ju):
        d_half = math.sqrt(src[i, j])
        est, _ = dls_query(ls.label(i), ls.label(j))
        worst = max(worst, abs(est - d_half) / d_half)
        assert abs(est - d_half) / d_half <= 3 * EPS + quantization_slack(
            ls.header, d_half)
    # the band is in practice far tighter than the 1+3eps promise
    assert worst < 0.05
