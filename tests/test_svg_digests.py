"""Byte-level golden digests of the rank-3 SVG pictures.

The SHA-256 of `render_picture` is pinned for the eight rank-3 standard
fixtures, each with extension ghosts off and on, with vertex markers, and
with a ghost offset of 1/7 at 100 samples (so coincident ghost curves sit on
a denominator other than the 2^-48 grid).  A change that moves any SVG byte
fails here and must say so.
"""

import hashlib
from fractions import Fraction

import pytest

from ghostpic.render import RenderOptions, render_picture
from ghostpic.verify import standard_fixtures

VARIANTS = {
    "plain": RenderOptions(),
    "ext": RenderOptions(include_extension_ghosts=True),
    "vertices": RenderOptions(include_extension_ghosts=True, show_vertices=True),
    "offset": RenderOptions(include_extension_ghosts=True, ghost_offset=Fraction(1, 7), samples=100),
}

DIGESTS = {
    ("torsion4", "plain"): "c5096f0f4271741c9f1bd122a63c7717a311005036e46e874f0b0f2857fb8568",
    ("torsion4", "ext"): "9ee3b0c4fe59b7eee008673adce08a922ccc3907a40939ea0a64f9d86db90d8e",
    ("torsion4", "vertices"): "2d3d99ee8b79690fbe3666aea60e42abe112b9544f40bf6919fe9eb738426a13",
    ("torsion4", "offset"): "3ca562b0a9ba39832e6c7d87b2587f552f3b890d4646b58f1e7e1e4cfc7bde45",
    ("minimal3", "plain"): "153b56c2f9aa1f6947bde5aa83d0532933c1da2fc899acdd2b224de1563245fe",
    ("minimal3", "ext"): "f5eaa1a3499f234284d28d91917fcfe34eefe1dc73196e35cd500bc7ffa00137",
    ("minimal3", "vertices"): "8a3475edb83fccfca5605073e23e9d2d1de41c57349a75391c3408e4e83675e2",
    ("minimal3", "offset"): "cc1df09ec6abb79954def9e1351c52cae3227da74196f08a8e4a48b2776e7cc4",
    ("case1", "plain"): "7129d36da6af98bd689f7fa8899633ac06309bd22fd1d1a2c0af2a2914ab1d3a",
    ("case1", "ext"): "8cd4951c7e50eeb409ee47fa7e718ff4710cca4cc4abe7aa30f6452676c66a8c",
    ("case1", "vertices"): "9d8436bbd98eb9a5547e85dd0eca3c5925abf0724a37b44d0fc51dd0fc29dde8",
    ("case1", "offset"): "f97f720659388648eb771dc84aeab41d5db9c91a79d7af88d7f37a9c0d80a8ff",
    ("case2", "plain"): "191b7b7162d427e2dfa6ff971a83ce605f30266aee429bf79a439db6957699c6",
    ("case2", "ext"): "87676256be08119465b32a0166b9efc1078f6842d30104acc608ed0b8658c589",
    ("case2", "vertices"): "1097e81e92f4eb9f9481d5c7e5f55b24b55c084db446e0b2ca960e0665371f0a",
    ("case2", "offset"): "790caddf7c112dd73b29d7b9cee1e5088778f5d8594a8934fa02fea9f3e68410",
    ("case4", "plain"): "79e28c77b32ac255eeaf10a855def906dda5018c374ab70dccae42d506a92527",
    ("case4", "ext"): "0794f1d162e8ff347e92e106df2b1665b35bcddf5dbd5ff7929f950841001bc1",
    ("case4", "vertices"): "9f33a581b2d0dc620de9bc3a8cc8cc69001357546c12500ea2203d9a74c627f8",
    ("case4", "offset"): "76405663bfb34ab9804251c0a780307071b7892b7efcffa0afac18dbf4977733",
    ("case5", "plain"): "2bacc6916dc434c2ed394e23018ac49d4fdda63dd939a722340adc6970ef9047",
    ("case5", "ext"): "8bc76e4ff2fe47c91e9344c169d991aeeb3eb61da95089a96d67aa0e4cb445f6",
    ("case5", "vertices"): "915acdaa5940f4a92d9a6671076d17b3c1df64f6f4d7e80105a0d7fbd58eddfe",
    ("case5", "offset"): "b9ea3673e24bd9744b91fca1ed147884d48ea19796ea20ecefd0b6fe3d3e5d4e",
    ("mixed5", "plain"): "e8439533ac5d81be143190782055b2910b69c3d2af780a419763edd253543af6",
    ("mixed5", "ext"): "56f47adbdf33708b6d04fc640132b172293c4ee63c163fcda96796cb3269df05",
    ("mixed5", "vertices"): "eafb3cf59e45b4fb748a238f435d497a590edad230e63e4e019b1b65c72b64e4",
    ("mixed5", "offset"): "8dd40a94be7dd56ea4c2e4d81537bc4b0aea1d07d135dcbccad839cac9fefc7e",
    ("full6", "plain"): "37bfd4ca078bff3d767735ab206fc3895a28417baea20e3b69ed8b38e15686db",
    ("full6", "ext"): "863cf3d73aff0a96881587c7d51936747ae80e090ab35eaa8ae944cae90d2346",
    ("full6", "vertices"): "92770d171ed856d112f46be699649f5d166800782159989d4d6607dd07111405",
    ("full6", "offset"): "8722b73bb9582d1c5c876aa4da3784a0a5cef2d77f4bcc782b82d7b215c4f5b7",
}


@pytest.fixture(scope="module")
def fixtures():
    return standard_fixtures()


@pytest.mark.parametrize("fixture,variant", sorted(DIGESTS))
def test_svg_digest(fixtures, fixture, variant):
    svg = render_picture(fixtures[fixture], VARIANTS[variant])
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == DIGESTS[fixture, variant]
