"""Byte-level golden digests of the rank-3 SVG pictures.

The SHA-256 of `render_picture` is pinned for the eight rank-3 standard
fixtures, each with extension ghosts off and on.  A change that moves any
SVG byte fails here and must say so.
"""

import hashlib

import pytest

from ghostpic.render import RenderOptions, render_picture
from ghostpic.verify import standard_fixtures

VARIANTS = {
    "plain": RenderOptions(),
    "ext": RenderOptions(include_extension_ghosts=True),
}

DIGESTS = {
    ("torsion4", "plain"): "c5096f0f4271741c9f1bd122a63c7717a311005036e46e874f0b0f2857fb8568",
    ("torsion4", "ext"): "9ee3b0c4fe59b7eee008673adce08a922ccc3907a40939ea0a64f9d86db90d8e",
    ("minimal3", "plain"): "153b56c2f9aa1f6947bde5aa83d0532933c1da2fc899acdd2b224de1563245fe",
    ("minimal3", "ext"): "f5eaa1a3499f234284d28d91917fcfe34eefe1dc73196e35cd500bc7ffa00137",
    ("case1", "plain"): "7129d36da6af98bd689f7fa8899633ac06309bd22fd1d1a2c0af2a2914ab1d3a",
    ("case1", "ext"): "8cd4951c7e50eeb409ee47fa7e718ff4710cca4cc4abe7aa30f6452676c66a8c",
    ("case2", "plain"): "191b7b7162d427e2dfa6ff971a83ce605f30266aee429bf79a439db6957699c6",
    ("case2", "ext"): "87676256be08119465b32a0166b9efc1078f6842d30104acc608ed0b8658c589",
    ("case4", "plain"): "79e28c77b32ac255eeaf10a855def906dda5018c374ab70dccae42d506a92527",
    ("case4", "ext"): "0794f1d162e8ff347e92e106df2b1665b35bcddf5dbd5ff7929f950841001bc1",
    ("case5", "plain"): "2bacc6916dc434c2ed394e23018ac49d4fdda63dd939a722340adc6970ef9047",
    ("case5", "ext"): "8bc76e4ff2fe47c91e9344c169d991aeeb3eb61da95089a96d67aa0e4cb445f6",
    ("mixed5", "plain"): "e8439533ac5d81be143190782055b2910b69c3d2af780a419763edd253543af6",
    ("mixed5", "ext"): "56f47adbdf33708b6d04fc640132b172293c4ee63c163fcda96796cb3269df05",
    ("full6", "plain"): "37bfd4ca078bff3d767735ab206fc3895a28417baea20e3b69ed8b38e15686db",
    ("full6", "ext"): "863cf3d73aff0a96881587c7d51936747ae80e090ab35eaa8ae944cae90d2346",
}


@pytest.fixture(scope="module")
def fixtures():
    return standard_fixtures()


@pytest.mark.parametrize("fixture,variant", sorted(DIGESTS))
def test_svg_digest(fixtures, fixture, variant):
    svg = render_picture(fixtures[fixture], VARIANTS[variant])
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == DIGESTS[fixture, variant]
