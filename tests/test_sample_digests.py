"""Golden digests of every exact sample point of the chamber builds.

For the ten standard fixtures and the full class over A4 with orientation
LLL, two SHA-256 digests are pinned.  The first covers the cell, chamber and
edge samples, which the simplex computes: it must take the same pivots as the
rational one it replaced, so not one of them may move.  The cells are those
of `enumerate_cells` on the brick dims, in its order; a chamber's sample is
its first cell's.  An edge's sample is solved, as the report solves it, by
`facet_lp_sample` on the edge's facet.
The second covers the facet points, which are read off the two cells'
samples with no LP.
"""

import hashlib
from fractions import Fraction

import pytest

from ghostpic.catalog import ModuleClass, generate_type_a
from ghostpic.geometry import enumerate_cells, facet_lp_sample, primitive
from ghostpic.stability import chamber_graph
from ghostpic.verify import standard_fixtures

DIGESTS = {
    "a1": "3ae54d3b9d7efbc2fcfa083dd9183ded3aa3155cf27ad8da4f05bd25376f0de5",
    "torsion4": "62b7d55b898d936afdee8d4e3136ee0230a8d1cea38fa369ce38ace16239104d",
    "minimal3": "8530f38b4b638dac5947024a86080fe5d7f0cab45d9828792054b615978af9e1",
    "case1": "54762c90f69f0fc84fc79026387e3d9efaf224d33b440220c845db5b1aaefdc9",
    "case2": "4dcface97668d0721f1759224ed88932e8e5fa29c57760ea16f09330ceab14dd",
    "case4": "e33cd9eec5c256028a77957c2ea063e750dab02e9616424b4b957d46d6d0f109",
    "case5": "245344666184b0cff5bc5e71fb8d4d8d38f2aafc4bfa1ed91f8846bf56579e5b",
    "mixed5": "81e95a4d78bbcfb5507d1a797275aa1ea503f80a7784db7271fa4ea98319f2fb",
    "full6": "a576970ac3b4a7383f5c6ec6cd4d9d31c9313a1577813ef0137c4adaad1258c1",
    "kronecker": "3369b5158068afef34afc43764af00bca760c0b27e3b00bcd4799cb7418a92e4",
    "a4-LLL-full": "826a3d83960f0b34a3f54954f69028b84cf6ba3acdbab5feb9b91ae2c9363a71",
}

# re-pinned when the facet points were read off the cells instead of solved
FACET_DIGESTS = {
    "a1": "476b049295ff0f7961f60433b79f118cc48d03d0bcc1700d2c191968ba427781",
    "torsion4": "c65a003479185459868caba32629d203fc8fcd34d5397ea7713a8646b8e0de35",
    "minimal3": "c1a0ce8585f29137afba38bdedcaa06df055930c8cc41b41e90a5bdd68c751cd",
    "case1": "9eb07594d83f6a514a13937800712f572c0fbbf6699790465a974fd33e77f840",
    "case2": "3a4ce11a1bea0b3cb7617a6a48040c6c9f0c88e43af318ce7743dc9bcf18e987",
    "case4": "82156b1b07d4ac772187fe78d997d015e8fa922465f07e37c4a9aa697db61419",
    "case5": "6495b6eda490525f1094f1461169d5a0177912f27e93ead94107372ecfc09c99",
    "mixed5": "b208bca7368387c39a1caa6c9549452d0f4d0de899098d45221a80fcfe7217d5",
    "full6": "bb06d6d71c10f721cdd29a083d8469146583b6c6e107b2cda0d4699a710c59bf",
    "kronecker": "1fbe668aa89527ba505f95b1746e1224a28f96f9534322dda0519d629ffbc082",
    "a4-LLL-full": "c2f3bdb78537659f27e4f1a3113b584320b9fadae295f0887e654110d3ec669b",
}


def _signs(signs):
    return "".join("+" if s > 0 else "-" for s in signs)


def _vec(num, den):
    return ",".join(str(Fraction(x, den)) for x in num)


def sample_lines(cls, graph):
    """One line per simplex sample of the graph's arrangement, chambers and
    edges."""
    normals = [primitive(cls.dim_of(b)) for b in cls.bricks]
    for c in enumerate_cells([cls.dim_of(b) for b in cls.bricks]):
        yield f"cell {_signs(c.signs)} {_vec(c.sample, c.den)}"
    for ch in graph.chambers:
        yield f"chamber {ch.id} {_vec(ch.cells[0].sample, ch.cells[0].den)}"
    for e in graph.edges:
        yield f"edge {e.src} {e.dst} {e.wall_brick} {_vec(*facet_lp_sample(normals, e.facet))}"


def facet_lines(graph):
    """One line per facet adjacency of the graph's arrangement, with its point."""
    for a in graph.adjacencies:
        yield (
            f"facet {a.hyperplane_index} {_signs(a.cell_a.signs)} "
            f"{_signs(a.cell_b.signs)} {_vec(a.facet_sample, 1)}"
        )


def digest(lines):
    text = "\n".join(lines) + "\n"
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
    cls = classes[name]
    assert digest(sample_lines(cls, chamber_graph(cls))) == DIGESTS[name]


@pytest.mark.parametrize("name", list(FACET_DIGESTS))
def test_facet_digest(classes, name):
    assert digest(facet_lines(chamber_graph(classes[name]))) == FACET_DIGESTS[name]
