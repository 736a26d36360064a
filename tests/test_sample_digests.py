"""Golden digests of every exact sample point of the chamber builds.

For the ten standard fixtures and the full class over A4 with orientation
LLL, the SHA-256 of all cell samples, facet samples, chamber samples and
edge samples is pinned.  The simplex that computes them must take the same
pivots as the rational one it replaced, so not one sample may move.
"""

import hashlib
from fractions import Fraction

import pytest

from ghostpic.catalog import ModuleClass, generate_type_a
from ghostpic.stability import chamber_graph
from ghostpic.verify import standard_fixtures

DIGESTS = {
    "a1": "aaf86068e251a8c59cd3015ab3b385a60bce3e35644854608e759bae83368bf8",
    "torsion4": "88c025cca8014db50b9a174deec455d74ed0d9cd3dc46e9a7ba28a53c474ba1a",
    "minimal3": "ecf8c0739c699143fae5ca74be2b36dfa582b720685e3ce68c6f696b3d5d3cb8",
    "case1": "eb017ac5727d7a79a25ee98ac9bacbc2c88ffdb455a7afaf39c5b941130a3666",
    "case2": "bb9bb4e8de3aad8e3d2c3e202a85157e0179fe346d7d700c832c7b0201f5c662",
    "case4": "6e60ba47800a56310ad329ac52741add96dcac96c5829ff542d9435238c662da",
    "case5": "f0e0967f80d3bed53d8560c044da523ddfbdcc78364d1226c82d2fc8aaf6178b",
    "mixed5": "4d35762af496ef162e09ebcf171c213b5acfd0fe680f75ff7232fef93a8ba64f",
    "full6": "11e454a80075cca1556ee9f2ba22cd8420c2e4aac8689508c118a86150efc8d3",
    "kronecker": "5dbd284fb230d3482efd8a7a67c56a8d48a11153db56b22898215d00e4218dc1",
    "a4-LLL-full": "bcf0ad62800e286adc1fa2bc6a2ae5a04e0a42d0deeedecd3daef0dacd32a260",
}


def _signs(signs):
    return "".join("+" if s > 0 else "-" for s in signs)


def _vec(num, den):
    return ",".join(str(Fraction(x, den)) for x in num)


def sample_lines(graph):
    """One line per exact sample of the graph's arrangement and chambers."""
    for c in graph.cells:
        yield f"cell {_signs(c.signs)} {_vec(c.sample, c.den)}"
    for a in graph.adjacencies:
        yield (
            f"facet {a.hyperplane_index} {_signs(a.cell_a.signs)} "
            f"{_signs(a.cell_b.signs)} {_vec(a.facet_sample, a.den)}"
        )
    for ch in graph.chambers:
        yield f"chamber {ch.id} {_vec(ch.sample, ch.den)}"
    for e in graph.edges:
        yield f"edge {e.src} {e.dst} {e.wall_brick} {_vec(e.facet_sample, e.den)}"


def sample_digest(cls):
    text = "\n".join(sample_lines(chamber_graph(cls))) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fixture_classes():
    classes = dict(standard_fixtures())
    cat = generate_type_a(4, "LLL")
    classes["a4-LLL-full"] = ModuleClass(cat, [m.id for m in cat.indecs])
    return classes


@pytest.fixture(scope="module")
def classes():
    return fixture_classes()


@pytest.mark.parametrize("name", list(DIGESTS))
def test_sample_digest(classes, name):
    assert sample_digest(classes[name]) == DIGESTS[name]
