"""Byte-level golden digests of CLI stdout.

The SHA-256 of the `chambers`, `mgs --all`, `ghosts`, `path` and
`picture --report` output is pinned for three fixtures over three catalogs
(A3 with orientations LL and LR, and the Kronecker fragment).  A change that
moves any output byte fails here and must say so.
"""

import hashlib

import pytest

from ghostpic.cli import dispatch

FIXTURES = {
    "torsion4": ["--type-a", "3", "--orient", "LL", "--class", "S1,P3,I2,S3"],
    "case2": ["--type-a", "3", "--orient", "LR", "--class", "S1,P2,S2,I3,I1"],
    "kronecker": ["--builtin", "kronecker", "--class", "P1,P2,M"],
}

PATHS = {
    "torsion4": ["--h=3,0,2", "--k=1,1,1"],
    "case2": ["--h=2,-3,1", "--k=1,2,3"],
    "kronecker": ["--h=1,-3", "--k=2,1"],
}

DIGESTS = {
    ("torsion4", "chambers"): "6c1c77ed97d7d4ee33630256f9c8ef6bce9c141802a44a6736f9d0eb164c2b4e",
    ("torsion4", "mgs"): "f5615452530010d13feddbf3e95f368391483b2d455d75c50e83f845616ff74f",
    ("torsion4", "ghosts"): "760c07088bad63cf2e884a21259883e37c6c5f23128df1c6a28f7a81cfd40d02",
    ("torsion4", "path"): "6081487c849e3dd71098a9d039f9027c9d85044e45d1a5d105f14c2afea4a2ed",
    ("case2", "chambers"): "e943c796b2f9d6ca720307e0955e48a4a5b69061e45e8ce852c1b0f5097a973e",
    ("case2", "mgs"): "2d49b6097f35625837d7150342e034f2610404d978e93971972adc1536a0ba07",
    ("case2", "ghosts"): "67c5489aa93e70bf73e243dbca9b36b855e9d36ade08dd8a71661e0c43778187",
    ("case2", "path"): "3a5f6a62931f30ce346c07c766652919261ac9c87b2b47ae1f12f87af858a237",
    ("kronecker", "chambers"): "6b855f7f0586f79eb08e6d6f5bd6a66c4faec35999378f4b4817a7ae883a3397",
    ("kronecker", "mgs"): "a43121b203701797dee507ccdd177e47649d67f03dbfff075c9e8925e5a31d2b",
    ("kronecker", "ghosts"): "627a6ed84072745bd05dbc4a2b84f7c9e5c09ba25b9f5dc0500d1deec8cace3f",
    ("kronecker", "path"): "6bd92f2c79cf98274172d39f66b449296e37fb5b3682e50032dec458598c1d99",
    ("torsion4", "report"): "86714844e4de78da8ca8d102ce95029266e7feaf0c7ddc15a4de1b18cfcb92ab",
    ("case2", "report"): "ba82957b903965ca6f58926558ed7f7337689d3dafa516e51877b6465ca71f85",
    ("kronecker", "report"): "997b9339511abecd6e3978ffd3cf3da76be65fd50dd060128d26f92f67380039",
}


def argv(fixture, command):
    head = {
        "chambers": ["chambers"],
        "mgs": ["mgs", "--all"],
        "ghosts": ["ghosts"],
        "path": ["path", *PATHS[fixture]],
        "report": ["picture", "--report"],
    }[command]
    return [*head, *FIXTURES[fixture]]


@pytest.mark.parametrize("fixture,command", sorted(DIGESTS))
def test_stdout_digest(capsys, fixture, command):
    assert dispatch(argv(fixture, command)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[fixture, command]
