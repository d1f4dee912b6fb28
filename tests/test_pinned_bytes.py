"""Pinned output bytes: the seed-0 dumps of four small snowflakes, one
per norm and an l1 set off a line, and the rows of one sampled
decomposition, as sha256 digests.

A rerun in one process cannot see a change that moves every run the same
way; these digests hold across commits. A change that means to move the
bytes (a new random stream, a new layout) updates the digests here and
says so.
"""

import hashlib

import numpy as np

from snowdim import snowflake
from snowdim.decomposition import build_decomposition
from snowdim.points import generate, normalize


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def test_l1_line_snowflake_dump_bytes():
    # the box cuts' Poisson weights, in place of the arc weights taken as
    # differences of L_r (digest 7f2c16db...b6eeb7): the same cuts in the
    # same columns, with coordinates that differ in their last bits
    s = normalize(generate("line", n=10, norm="l1", seed=0))
    e = snowflake.build_snowflake(s, 0.5, 0.1, seed=0)
    assert sha256(snowflake.dumps(e)) == (
        "728e830294a94d75c6a353e070df7577531ba29c8875694bfda2f57b7bdf803e")


def test_l1_ball_snowflake_dump_bytes():
    # a 2-d ball is cut along both axes: each cluster shape's cuts are
    # replayed at every scale through both passes' bincounts
    s = normalize(generate("ball", n=12, dim=2, norm="l1", seed=0))
    e = snowflake.build_snowflake(s, 0.5, 0.1, seed=0)
    assert e.k == 36898
    assert sha256(snowflake.dumps(e)) == (
        "7d724a391ed7f60309f5fce001ca39e6f29074f72946b8a2217aca2e1a532d48")


def test_l2_grid_snowflake_dump_bytes():
    # the classical MDS of the summed squared per-scale distances
    s = normalize(generate("grid", side=8, dims=2))
    e = snowflake.build_snowflake(s, 0.5, 0.1, seed=0)
    assert sha256(snowflake.dumps(e)) == (
        "915a4d392f871d5ccff026127fffba46edbbb7e0f9e3e566fdc67f1faf03cee9")


def test_linf_ball_snowflake_dump_bytes():
    # the 32-column Frechet map of the max of the per-scale distances; its
    # pair distances are bitwise those of the one-block-per-scale layout
    # it replaced
    s = normalize(generate("ball", n=32, dim=4, norm="linf", seed=0))
    e = snowflake.build_snowflake(s, 0.5, 0.1, seed=0)
    assert sha256(snowflake.dumps(e)) == (
        "729109bc6a17065eb4fab70bb458a71638e41cc85f3c223826833a53c80676a2")


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
