import hashlib
import itertools
import json
import random

import pytest

from ghostpic.catalog import (
    ModuleClass,
    ModuleSum,
    Quiver,
    builtin_kronecker,
    dump_catalog,
    euler_form,
    generate_type_a,
    load_catalog,
)
from ghostpic.errors import CatalogError
from reference_vectors import proportional

# ---------------------------------------------------------------------------
# Independent oracles: plain linear algebra over F2 for representations of
# the A3 quivers, with no interval combinatorics.
# ---------------------------------------------------------------------------


def _f2_rank(rows):
    rows = [list(r) for r in rows]
    rank, width = 0, len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _matrices(rows, cols):
    if rows == 0 or cols == 0:
        yield tuple()
        return
    for bits in itertools.product((0, 1), repeat=rows * cols):
        yield tuple(tuple(bits[r * cols + c] for c in range(cols)) for r in range(rows))


def _mat_rank(m):
    return _f2_rank([list(r) for r in m]) if m else 0


def _compose(a, b):
    # a: p x q, b: q x r over F2
    if not a or not b:
        return tuple()
    q = len(b)
    r = len(b[0])
    p = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(q)) % 2 for j in range(r))
        for i in range(p)
    )


def a3_ll_interval_multiplicities(d, f_a, f_b):
    """Summand multiplicities of a rep of 1<-2<-3 (maps f_a: V2->V1,
    f_b: V3->V2) in terms of the three rank invariants."""
    ra, rb = _mat_rank(f_a), _mat_rank(f_b)
    rab = _mat_rank(_compose(f_a, f_b))
    mult = {
        (1, 3): rab,
        (1, 2): ra - rab,
        (2, 3): rb - rab,
        (1, 1): d[0] - ra,
        (2, 2): d[1] - ra - rb + rab,
        (3, 3): d[2] - rb,
    }
    return mult


def a3_lr_interval_multiplicities(d, f_a, f_c):
    """Summand multiplicities of a rep of 1<-2->3 (maps f_a: V2->V1,
    f_c: V2->V3) from the ranks of the two maps and their stacked map."""
    ra, rc = _mat_rank(f_a), _mat_rank(f_c)
    if f_a and f_c:
        r_joint = _f2_rank([list(r) for r in f_a] + [list(r) for r in f_c])
    else:
        r_joint = max(ra, rc)
    return {
        (1, 3): ra + rc - r_joint,
        (1, 2): r_joint - rc,
        (2, 3): r_joint - ra,
        (1, 1): d[0] - ra,
        (2, 2): d[1] - r_joint,
        (3, 3): d[2] - rc,
    }


def test_lr_named_indecomposables_have_their_own_signature(cat_lr):
    # each generated indecomposable, realized as an explicit F2
    # representation, decomposes as exactly one copy of itself
    for m in cat_lr.indecs:
        d = m.dim
        f_a = [[1]] if (d[0] and d[1]) else []
        f_c = [[1]] if (d[2] and d[1]) else []
        mult = a3_lr_interval_multiplicities(d, f_a, f_c)
        interval = next(
            (a, b)
            for a in (1, 2, 3)
            for b in range(a, 4)
            if tuple(1 if a <= v <= b else 0 for v in (1, 2, 3)) == d
        )
        assert mult[interval] == 1
        assert all(v == 0 for k, v in mult.items() if k != interval), (m.id, mult)


def test_ll_every_small_rep_decomposes_into_intervals():
    # Every F2 representation of 1<-2<-3 with entries <= 2 is a direct sum of
    # interval modules: the rank invariants always give nonnegative interval
    # multiplicities that reconstruct the dimension vector.
    for d in itertools.product(range(3), repeat=3):
        if d == (0, 0, 0):
            continue
        for f_a in _matrices(d[0], d[1]):
            for f_b in _matrices(d[1], d[2]):
                mult = a3_ll_interval_multiplicities(d, f_a, f_b)
                assert all(v >= 0 for v in mult.values()), (d, mult)
                recon = [0, 0, 0]
                for (a, b), m in mult.items():
                    for v in range(a, b + 1):
                        recon[v - 1] += m
                assert tuple(recon) == d


def _f2_hom_dim(d_m, maps_m, d_n, maps_n, arrows):
    """dim Hom between two reps with all entries <= 1, by enumerating scalar
    vertex maps and checking the commuting squares."""
    free = [v for v in range(3) if d_m[v] and d_n[v]]
    count = 0
    for assign in itertools.product((0, 1), repeat=len(free)):
        phi = [0, 0, 0]
        for v, a in zip(free, assign):
            phi[v] = a
        ok = True
        for s, t in arrows:
            lhs = phi[t - 1] * maps_m.get((s, t), 0)
            rhs = maps_n.get((s, t), 0) * phi[s - 1]
            if (lhs - rhs) % 2:
                ok = False
                break
        if ok:
            count += 1
    return count.bit_length() - 1  # count = 2^dim


def _interval_rep(a, b):
    d = tuple(1 if a <= v <= b else 0 for v in (1, 2, 3))
    return d


def _interval_maps(a, b, arrows):
    maps = {}
    for s, t in arrows:
        if a <= s <= b and a <= t <= b:
            maps[(s, t)] = 1
    return maps


class TestTypeAGeneration:
    def test_a3_ll_indecomposables(self, cat_ll):
        dims = {m.id: m.dim for m in cat_ll.indecs}
        assert dims == {
            "S1": (1, 0, 0),
            "S2": (0, 1, 0),
            "S3": (0, 0, 1),
            "P2": (1, 1, 0),
            "I2": (0, 1, 1),
            "P3": (1, 1, 1),
        }

    def test_a1(self, cat_a1):
        assert [(m.id, m.dim) for m in cat_a1.indecs] == [("S1", (1,))]

    def test_a3_lr_names(self, cat_lr):
        dims = {m.id: m.dim for m in cat_lr.indecs}
        assert dims["P2"] == (1, 1, 1)
        assert dims["I1"] == (1, 1, 0)
        assert dims["I3"] == (0, 1, 1)

    def test_count_and_brickness(self):
        for n, orient in [(2, "L"), (3, "LR"), (4, "LRL"), (5, "RRLL")]:
            cat = generate_type_a(n, orient)
            assert len(cat.indecs) == n * (n + 1) // 2
            for m in cat.indecs:
                assert cat.hom_dim(m.id, m.id) == 1

    def test_subquotient_dim_additivity(self):
        cat = generate_type_a(4, "LRL")
        for m in cat.indecs:
            for p in cat.pairs(m.id):
                total = tuple(
                    a + b for a, b in zip(cat.dim_of(p.sub), cat.dim_of(p.quot))
                )
                assert total == m.dim

    def test_ses_invariants(self, cat_ll):
        for s in cat_ll.ses_list:
            assert cat_ll.hom_dim(s.a, s.c) == 0
            da, db, dc = (cat_ll.dim_of(x) for x in (s.a, s.b, s.c))
            assert tuple(x + y for x, y in zip(da, dc)) == db

    def test_invalid_input(self):
        with pytest.raises(CatalogError):
            generate_type_a(0, "")
        with pytest.raises(CatalogError):
            generate_type_a(3, "L")
        with pytest.raises(CatalogError):
            generate_type_a(3, "LX")


class TestHomTable:
    def test_examples(self, cat_ll):
        assert cat_ll.hom_dim("P3", "I2") == 1
        assert cat_ll.hom_dim("S1", "S3") == 0
        assert cat_ll.hom_dim("S1", "I2") == 0

    def test_against_f2_oracle(self, cat_ll):
        arrows = [(2, 1), (3, 2)]
        intervals = {
            m.id: next(
                (a, b)
                for a in (1, 2, 3)
                for b in range(a, 4)
                if _interval_rep(a, b) == m.dim
            )
            for m in cat_ll.indecs
        }
        for x in cat_ll.indecs:
            for y in cat_ll.indecs:
                (a1, b1), (a2, b2) = intervals[x.id], intervals[y.id]
                oracle = _f2_hom_dim(
                    x.dim,
                    _interval_maps(a1, b1, arrows),
                    y.dim,
                    _interval_maps(a2, b2, arrows),
                    arrows,
                )
                assert cat_ll.hom_dim(x.id, y.id) == oracle, (x.id, y.id)


class TestKronecker:
    def test_ses_list(self, kronecker):
        triples = {(s.a, s.b, s.c) for s in kronecker.ses_list}
        assert ("P1", "P2", "M") in triples
        assert ("P1", "M", "S2") in triples
        # the radical embedding P1+P1 < P2 is a subquotient pair but its
        # kernel is not a brick, so it is not a short exact sequence entry
        assert len(triples) == 2
        assert any(
            p.sub == ModuleSum(["P1", "P1"]) for p in kronecker.pairs("P2")
        )

    def test_hom_facts(self, kronecker):
        assert kronecker.hom_dim("P1", "P2") == 2
        assert kronecker.hom_dim("P1", "M") == 1
        assert kronecker.hom_dim("P2", "M") == 1
        assert kronecker.hom_dim("M", "P2") == 0
        assert kronecker.hom_dim("S2", "P1") == 0

    def test_incomplete(self, kronecker):
        assert kronecker.complete is False


class TestSerialization:
    def test_round_trip_generated(self, cat_ll):
        doc = dump_catalog(cat_ll)
        assert dump_catalog(load_catalog(doc)) == doc

    def test_round_trip_kronecker(self, kronecker):
        doc = dump_catalog(kronecker)
        assert dump_catalog(load_catalog(doc)) == doc

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_round_trip_every_orientation_and_its_opposite(self, n):
        for w in _orientations(n):
            catalog = generate_type_a(n, w)
            for c in (catalog, catalog.opposite()):
                doc = dump_catalog(c)
                assert dump_catalog(load_catalog(doc)) == doc

    def test_ses_dimension_mismatch(self, kronecker):
        doc = json.loads(dump_catalog(kronecker))
        doc["ses"] = [["P1", "P2", "S2"]]
        with pytest.raises(CatalogError, match="ses-dimension-mismatch"):
            load_catalog(json.dumps(doc))

    @pytest.mark.parametrize(
        "malform,message",
        [
            (lambda doc: doc["quiver"].update(n=0), "vertex count must be a positive integer, got 0"),
            (lambda doc: doc["quiver"].update(arrows=[[3, 1]]), r"arrow \(3,1\) outside vertex range 1\.\.2"),
            (lambda doc: doc["quiver"].update(arrows=[[2, 2]]), "loops are not allowed"),
            (lambda doc: doc["indecs"][0].update(dim=[0, 0]), "dimension vector of M must be nonzero"),
            (lambda doc: doc["indecs"][0].update(dim=[-1, 2]), "dimension vector of M must be nonzero"),
        ],
        ids=["no-vertices", "arrow-out-of-range", "loop", "zero-dim", "negative-dim"],
    )
    def test_quiver_and_indec_checks(self, kronecker, malform, message):
        doc = json.loads(dump_catalog(kronecker))
        malform(doc)
        with pytest.raises(CatalogError, match=message):
            load_catalog(json.dumps(doc))

    def test_schema_violation(self):
        with pytest.raises(CatalogError):
            load_catalog("{}")
        with pytest.raises(CatalogError):
            load_catalog("not json")


def _orientations(n):
    return ["".join(w) for w in itertools.product("LR", repeat=n - 1)]


# One sha256 over dump_catalog of every type-A orientation with n <= 6, each
# followed by its opposite, in the order of _orientations.
GENERATED_DIGEST = "91f3c87b6d897bbb318dd54ea71574d103e3286c2485628de0bc799467ff56e1"


def test_every_small_generated_catalog_keeps_its_bytes():
    digest = hashlib.sha256()
    for n in range(1, 7):
        for w in _orientations(n):
            catalog = generate_type_a(n, w)
            for c in (catalog, catalog.opposite()):
                digest.update(dump_catalog(c).encode("utf-8"))
    assert digest.hexdigest() == GENERATED_DIGEST


@pytest.mark.parametrize("w", _orientations(3))
def test_every_single_hom_change_is_refused(w):
    """On a complete catalog Hom is exactly max(<dim X, dim Y>, 0), so moving
    any one entry by +-1 (a 0 entry by adding a row, a 1 entry to 0 by
    dropping its row) is refused, on each A3 catalog and its opposite."""
    catalog = generate_type_a(3, w)
    for c in (catalog, catalog.opposite()):
        doc = json.loads(dump_catalog(c))
        hom = {(x, y): d for x, y, d in doc["hom"]}
        assert dump_catalog(load_catalog(json.dumps(doc))) == dump_catalog(c)
        for pair in itertools.product([m.id for m in c.indecs], repeat=2):
            for step in (-1, 1):
                changed = {**hom, pair: hom.get(pair, 0) + step}
                doc["hom"] = [[x, y, d] for (x, y), d in changed.items() if d]
                with pytest.raises(CatalogError, match="^catalog schema violation: "):
                    load_catalog(json.dumps(doc))


def _by_dims(catalog):
    """The catalog's arrows, pairs with their bases, hom, short exact
    sequences and completeness, with every module named by its dims."""
    dim = catalog.dim_of

    def dims(x):
        return tuple(sorted(dim(i) for i in x))

    return (
        sorted(catalog.quiver.arrows),
        {
            dim(m.id): sorted(
                (dims(p.sub), dims(p.quot), sorted(p.basis)) for p in catalog.pairs(m.id)
            )
            for m in catalog.indecs
        },
        {(dim(x), dim(y)): d for (x, y), d in catalog.hom.items() if d},
        sorted((dim(s.a), dim(s.b), dim(s.c)) for s in catalog.ses_list),
        catalog.complete,
    )


class TestOpposite:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_is_the_catalog_of_the_flipped_orientation(self, n):
        # an oracle independent of `opposite`: reversing every arrow turns
        # each L (i+1 -> i) into R (i -> i+1) and back
        for w in _orientations(n):
            flipped = "".join({"L": "R", "R": "L"}[x] for x in w)
            opposite = generate_type_a(n, w).opposite()
            assert _by_dims(opposite) == _by_dims(generate_type_a(n, flipped))

    def test_built_once_per_catalog(self, cat_ll, kronecker):
        for c in (cat_ll, kronecker):
            assert c.opposite() is c.opposite()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_double_opposite_of_a_generated_catalog(self, n):
        for w in _orientations(n):
            c = generate_type_a(n, w)
            assert dump_catalog(c.opposite().opposite()) == dump_catalog(c)

    def test_kronecker(self, kronecker):
        opposite = kronecker.opposite()
        assert opposite.quiver.arrows == ((1, 2), (1, 2))
        assert [m.id for m in opposite.indecs] == [m.id for m in kronecker.indecs]
        assert opposite.hom_dim("P2", "P1") == 2 and opposite.hom_dim("P1", "P2") == 0
        assert [(s.a, s.b, s.c) for s in opposite.ses_list] == [("M", "P2", "P1"), ("S2", "M", "P1")]
        assert opposite.complete is False
        assert dump_catalog(opposite.opposite()) == dump_catalog(kronecker)

    def test_double_opposite_of_a_loaded_catalog_without_bases(self, cat_lr):
        doc = json.loads(dump_catalog(cat_lr))
        for plist in doc["subquotients"].values():
            for p in plist:
                del p["basis"]
        c = load_catalog(json.dumps(doc))
        assert all(p.basis is None for m in c.indecs for p in c.opposite().pairs(m.id))
        assert dump_catalog(c.opposite().opposite()) == dump_catalog(c)


class TestFilt:
    def test_direct_sums_of_members(self, kronecker_class):
        assert kronecker_class.in_filt(ModuleSum(["P1", "P1"]))

    def test_missing_simple(self, kronecker_class):
        assert not kronecker_class.in_filt(ModuleSum(["S2"]))

    def test_extension_membership(self, cat_ll):
        cls = ModuleClass(cat_ll, ["S1", "I2"])
        assert cls.in_filt(ModuleSum(["P3"]))

    def test_against_exhaustive_oracle(self, cat_ll, cat_lr):
        # independent top-down search over all subquotient chains
        def filt_oracle(cls, x):
            if not x:
                return True
            for sub, quot in cls.sum_subquotient_pairs(x):
                if not quot or not cls.in_add(quot):
                    continue
                if filt_oracle(cls, sub):
                    return True
            return False

        rng = random.Random(5)
        for cat in (cat_ll, cat_lr):
            ids = [m.id for m in cat.indecs]
            for _ in range(20):
                bricks = rng.sample(ids, rng.randint(1, 4))
                cls = ModuleClass(cat, bricks)
                for m in ids:
                    x = ModuleSum([m])
                    assert cls.in_filt(x) == filt_oracle(cls, x), (bricks, m)

    def test_monotone(self, torsion4):
        # sums of members are always in Filt; Filt is closed under sums
        assert torsion4.in_filt(ModuleSum(["S1", "P3", "I2"]))
        assert torsion4.in_filt(ModuleSum(["S1"])) and torsion4.in_filt(ModuleSum(["I2"]))
        assert torsion4.in_filt(ModuleSum(["S1", "I2"]))


class TestWeakAdmissibility:
    def test_kronecker_examples(self, kronecker, kronecker_class):
        line = next(p for p in kronecker.pairs("P2") if p.sub == ModuleSum(["P1"]))
        assert line in kronecker_class.weakly_admissible_quotients("P2", False)
        socle = next(p for p in kronecker.pairs("M") if p.sub == ModuleSum(["P1"]))
        assert socle not in kronecker_class.weakly_admissible_quotients("M", False)

    def test_minimal_brick_example(self, minimal3, cat_ll):
        pair = next(p for p in cat_ll.pairs("P3") if p.sub == ModuleSum(["S1"]))
        assert pair not in minimal3.weakly_admissible_quotients("P3", False)
        assert minimal3.is_minimal_brick("P3")

    def test_extension_closed_weak_equals_admissible(self, torsion4, full6, case1, case2):
        # with extension closure the kernel lies in the class itself
        for cls in (torsion4, full6, case1, case2):
            assert cls.flags.extension_closed
            for m in cls.bricks:
                weak = {p.quot for p in cls.weakly_admissible_quotients(m, True)}
                adm = {p.quot for p in cls.admissible_quotients(m)}
                assert weak == adm


class TestClassification:
    def test_whole_category(self, full6):
        flags = full6.flags
        assert flags.quotient_closed and flags.sub_closed
        assert flags.extension_closed and flags.is_torsion and flags.is_torsion_free

    def test_lr_torsion_class(self, case2):
        assert case2.flags.is_torsion is True

    def test_kronecker_unknown(self, kronecker_class):
        flags = kronecker_class.flags
        assert flags.is_torsion is None and flags.is_torsion_free is None

    def test_torsion4_is_torsion_not_torsion_free(self, torsion4):
        assert torsion4.flags.is_torsion is True
        assert torsion4.flags.is_torsion_free is False

    def test_linear_dependence_rejected(self, kronecker):
        doc = json.loads(dump_catalog(kronecker))
        doc["indecs"].append({"id": "M2", "name": "M2", "dim": [2, 2]})
        doc["subquotients"]["M2"] = [
            {"sub": [], "quot": ["M2"], "tag": "sub{}"},
            {"sub": ["M2"], "quot": [], "tag": "sub{all}"},
        ]
        doc["hom"].append(["M2", "M2", 1])
        # the rows the Euler form asks of a (2,2) module: <P1,M2> = <P2,M2> = <M2,S2> = 2
        doc["hom"] += [["P1", "M2", 2], ["P2", "M2", 2], ["M2", "S2", 2]]
        cat = load_catalog(json.dumps(doc))
        with pytest.raises(CatalogError, match="linearly dependent"):
            ModuleClass(cat, ["M", "M2"])

    def test_two_proportional_lines_name_the_pair_of_the_pairwise_scan(self):
        """Over the quiver with three arrows 2 -> 1, the bricks A, B, C, D of
        dims (1,1), (1,2), (2,4), (2,2) lie on two lines, A with D and B with
        C.  The class is refused for the first pair (i, j) in brick order
        whose dims have vanishing 2x2 minors: (A, D), though B and C meet
        first when the bricks are read in order."""
        quiver = Quiver(2, ((2, 1),) * 3)
        dims = {"A": (1, 1), "B": (1, 2), "C": (2, 4), "D": (2, 2)}
        doc = {
            "quiver": {"n": quiver.n, "arrows": quiver.arrows},
            "indecs": [{"id": m, "dim": list(d)} for m, d in dims.items()],
            "subquotients": {m: [{"sub": [], "quot": [m]}, {"sub": [m], "quot": []}] for m in dims},
            "hom": [
                [x, y, 1 if x == y else max(euler_form(quiver, dx, dy), 0)]
                for (x, dx), (y, dy) in itertools.product(dims.items(), repeat=2)
            ],
            "ses": [],
            "complete": False,
        }
        catalog = load_catalog(json.dumps(doc))
        bricks = list(dims)
        first = next(
            (x, y) for x, y in itertools.combinations(bricks, 2) if proportional(dims[x], dims[y])
        )
        assert first == ("A", "D")
        with pytest.raises(CatalogError) as refused:
            ModuleClass(catalog, bricks)
        assert str(refused.value) == "dimension vectors of A and D are linearly dependent"
