"""Pinned output bytes: the seed-0 dumps of seven snowflakes, one per
norm, two l1 sets off a line, an l2 set whose fine scales scatter their
small clusters' Grams and an l2 tree metric whose distances tie, the audit
reports of six of them and of two failing l2 snowflakes, and the rows of
one sampled decomposition, as sha256 digests; and the same digests again
with every module's PAIRWISE_BYTES at 4 KiB.

A rerun in one process cannot see a change that moves every run the same
way; these digests hold across commits. A change that means to move the
bytes (a new random stream, a new layout) updates the digests here and
says so.
"""

import hashlib

import numpy as np
import pytest

from snowdim import (decomposition, points, single_scale, snowflake,
                     transforms)
from snowdim.decomposition import build_decomposition
from snowdim.points import PointSet, generate, normalize


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def test_l1_line_snowflake_dump_bytes():
    # the direct sum of the scales as its cut measure, one column per
    # distinct cut, in place of the round-robin layout of 6,886 columns
    # (digest 728e8302...df803e)
    s = normalize(generate("line", n=10, norm="l1", seed=0))
    e = snowflake.build_snowflake(s, 0.5, 0.1, seed=0)
    assert e.k == 66
    assert sha256(snowflake.dumps(e)) == (
        "20f7a8b0499f480bb57f0ea95fb7d3a279cc716ea3e267455eb0b7e995b302de")


def test_l1_ball_snowflake_dump_bytes():
    # a 2-d ball is cut along both axes, once for the whole set: every
    # cluster traces the whole set's cuts at its scale, in place of cuts
    # of its own shape (digest 0ca26263...60e60e4), whose weights were
    # summed in another order. The output is the cut measure of the
    # direct sum, in place of the round-robin layout of 36,898 columns
    # (digest 7d724a39...a532d48)
    s = normalize(generate("ball", n=12, dim=2, norm="l1", seed=0))
    e = snowflake.build_snowflake(s, 0.5, 0.1, seed=0)
    assert e.k == 459
    assert sha256(snowflake.dumps(e)) == (
        "273e7057c04292b803cfa0861e05952d17628ff3e75819667ef1aa97c42e53f1")


def test_l1_ball20_snowflake_dump_bytes():
    # 3,211 cuts, so a scale's cuts are far more than the 8 terms below
    # which numpy's pairwise sum of a row is plain sequential: a pair
    # distance summed in another order moves these bytes
    s = normalize(generate("ball", n=20, dim=2, norm="l1", seed=0))
    e = snowflake.build_snowflake(s, 0.5, 0.1, seed=0)
    assert e.k == 3211
    assert sha256(snowflake.dumps(e)) == (
        "93cecd93f3305b0e01b7fee93944d894cc2f63abd13e44eae40746f8f4cade5a")
    assert sha256(snowflake.distortion_audit(e).dumps_json().encode()) == (
        "295ad690e0b45111aabb3a18c61948b28a014a649be757c7efc74ed0770ab21b")


def test_l1_line_and_ball_report_bytes():
    # the audit reads every scale's pair distances, so a row that moves
    # by one ulp moves the report even where the dump holds
    sets = [normalize(generate("line", n=10, norm="l1", seed=0)),
            normalize(generate("ball", n=12, dim=2, norm="l1", seed=0))]
    assert [sha256(snowflake.distortion_audit(snowflake.build_snowflake(
        s, 0.5, 0.1, seed=0)).dumps_json().encode()) for s in sets] == [
        "3f3cebb0a94cb2564b9f52a40e13df5f06aa69d746c2e07f86d1818166780a74",
        "42e339c32b9d34f74d3cdd85b5b023523938c0e7064f19bcee99e1db81f202d6"]


def test_l2_grid_snowflake_dump_bytes():
    # the classical MDS of the summed squared per-scale distances
    s = normalize(generate("grid", side=8, dims=2))
    e = snowflake.build_snowflake(s, 0.5, 0.1, seed=0)
    assert sha256(snowflake.dumps(e)) == (
        "915a4d392f871d5ccff026127fffba46edbbb7e0f9e3e566fdc67f1faf03cee9")


def test_l2_subspace_snowflake_dump_bytes(subspace200):
    # the fine scales' small clusters are scattered into the scale Gram
    # and only the large ones multiplied, which moves the last bits of
    # pairs that share several clusters, in place of two dense products
    # over every cluster (digest 5da99809...fc7b4930)
    e = subspace200
    assert e.k == 199
    assert sha256(snowflake.dumps(e)) == (
        "50cfa69fcc799961984509070efec6ccd5cb06e1a32a6d03569ef93ca0530a7d")


def test_l2_ultrametric_snowflake_dump_bytes():
    # a 128-leaf tree: its distances tie exactly, so carve radii land on
    # runs of equal pair distances, and its scales carve from the whole
    # reach and from the close pairs
    s = normalize(generate("ultrametric", depth=7))
    e = snowflake.build_snowflake(s, 0.5, 0.1, seed=0)
    assert e.k == 127
    assert sha256(snowflake.dumps(e)) == (
        "ff9c59352f9564f4dea2cbd8df7184aa528688c609bd8b47803994372882e520")


def linf_ball():
    s = normalize(generate("ball", n=32, dim=4, norm="linf", seed=0))
    return snowflake.build_snowflake(s, 0.5, 0.1, seed=0)


def test_linf_ball_snowflake_dump_bytes():
    # the 32-column Frechet map of the max of the per-scale distances,
    # which are read off each scale's clusters with no block; on this
    # ball the output is bitwise the one the scales' blocks gave
    assert sha256(snowflake.dumps(linf_ball())) == (
        "729109bc6a17065eb4fab70bb458a71638e41cc85f3c223826833a53c80676a2")


def test_linf_ball_and_l2_grid_report_bytes():
    # the audit reports: pair ratios, tail and dominant-term checks and
    # extras, all in the report's JSON
    grid = snowflake.build_snowflake(
        normalize(generate("grid", side=8, dims=2)), 0.5, 0.1, seed=0)
    assert [sha256(snowflake.distortion_audit(e).dumps_json().encode())
            for e in (linf_ball(), grid)] == [
        "9d46387116ef010e357c4c2e5d4c93d3186c0fb0967014eee9b5eb899212b5a5",
        "70214bedbe09428fd81f0cbb338fd12ef50faf49ec12925d6516b799152a4781"]


def test_l2_subspace_and_failing_l2_report_bytes(subspace200):
    # 19,900 pairs in six chunks of the tail check; an 8-point line at
    # alpha = 0.2, whose report holds 350 tail and 15 dominant-term
    # violations; and {0, 1, 1000} at alpha = 0.2, whose 314 scales give
    # the tail sums three shift terms (p = 94)
    line = normalize(generate("line", n=8, norm="l2", seed=0))
    far = normalize(PointSet(np.array([[0.0], [1.0], [1000.0]]), 2.0))
    embeddings = [subspace200] + [
        snowflake.build_snowflake(s, 0.2, 0.1, seed=0) for s in (line, far)]
    assert [len(e.scale_k) for e in embeddings[1:]] == [262, 314]
    assert [sha256(snowflake.distortion_audit(e).dumps_json().encode())
            for e in embeddings] == [
        "c951ead80c3cf3f50158d3d7e7747e93ba6d8743e236c652f7d12a8c7920c4ce",
        "297daaf3fe7362c22d68084c78acfc6426bd798dae013f937a22958e277f6470",
        "c2c51076297999d54cc37f74dee2b5f6b24069ec6159238e42144a8aebdc4028"]


def test_sampled_decomposition_label_bytes():
    s = normalize(generate("grid", side=10, dims=2))
    dec = build_decomposition(s, delta=24.0, pad_radius=1.0, eps_pad=0.36,
                              seed=0)
    assert (dec.m, dec.attempts, dec.copies) == (164, 1, 1)
    assert sha256(dec.labels.astype("<i8").tobytes()) == (
        "e133138bee4162af6772bd750716da1a7a6cb50ee957a7466b49ea193ca4f559")
    assert sha256(dec.padded.tobytes()) == (
        "ee7302fa7c63c1b04d74b8c9745ae0b0a6baa7450af28f59c11f083a926c1e81")
    assert sha256(dec.radii.astype("<f8").tobytes()) == (
        "f93126dd1fe59957b945e17d427fda0254f41a929bb2f1fcde0ce70f2da56f7a")
    # the member and size rows are the labels' stable sort and counts
    assert np.array_equal(dec.members,
                          np.argsort(dec.labels, axis=1, kind="stable"))
    assert np.array_equal(dec.sizes, np.stack(
        [np.bincount(row, minlength=s.n) for row in dec.labels]))


@pytest.mark.parametrize("pinned", [
    test_l1_line_snowflake_dump_bytes, test_l1_ball_snowflake_dump_bytes,
    test_l1_ball20_snowflake_dump_bytes, test_l1_line_and_ball_report_bytes,
    test_l2_grid_snowflake_dump_bytes, test_l2_ultrametric_snowflake_dump_bytes,
    test_linf_ball_snowflake_dump_bytes, test_linf_ball_and_l2_grid_report_bytes,
    test_sampled_decomposition_label_bytes], ids=lambda f: f.__name__[5:])
def test_the_bytes_do_not_depend_on_the_pairwise_budget(pinned, monkeypatch):
    # a budget of 4 KiB splits every chunked kernel, the l1 cut passes
    # among them, into many chunks, and leaves each pinned byte in place
    for module in (points, decomposition, single_scale, snowflake,
                   transforms):
        monkeypatch.setattr(module, "PAIRWISE_BYTES", 4 << 10)
    pinned()
