import json
import math

import numpy as np
import pytest

from graphgp import gp
from graphgp.datasets import (
    Molecule,
    SequentialLayout,
    TypeAlignedLayout,
    encode,
    filter_small,
    infer_sequential_layout,
    layout_from_json,
    layout_to_json,
    load_molecules,
    log_likelihood_of_prediction,
    predictive_log_likelihood,
    read_codes,
    rmse,
    save_molecules,
    subgroup_from_layout,
    train_test_split,
    write_codes,
)
from graphgp.invariance import invariant_kernel_exact
from graphgp.kernels import Heat, IsotropicKernel, KernelSpec
from graphgp.spaces import GraphSpace, GraphSpaceKind, graph_to_json

CNOCL_LAYOUT = TypeAlignedLayout((("C", 3), ("N", 3), ("O", 3), ("Cl", 3)))

ETHANOL = Molecule(("C", "C", "O", "H", "H", "H", "H", "H", "H"),
                   ((0, 1), (1, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7), (2, 8)),
                   target=-5.0, mol_id="ethanol")
BENZENE = Molecule(tuple("C" * 6), ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)),
                   target=-0.9, mol_id="benzene")


class TestMolecule:
    def test_bond_validation(self):
        with pytest.raises(ValueError, match="range"):
            Molecule(("C",), ((0, 1),), 0.0)
        with pytest.raises(ValueError, match="itself"):
            Molecule(("C", "O"), ((1, 1),), 0.0)
        with pytest.raises(ValueError, match="duplicate"):
            Molecule(("C", "O"), ((0, 1), (1, 0)), 0.0)

    def test_heavy_strips_hydrogens_and_reindexes(self):
        heavy = ETHANOL.heavy()
        assert heavy.atoms == ("C", "C", "O")
        assert heavy.bonds == ((0, 1), (1, 2))
        assert heavy.target == -5.0

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "mols.jsonl"
        save_molecules(path, [ETHANOL, BENZENE])
        back = load_molecules(path)
        assert back == [ETHANOL, BENZENE]

    def test_load_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"atoms": ["C"], "bonds": [], "target": 1.0}\n{"oops": 1}\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_molecules(path)


class TestLayouts:
    def test_type_aligned_validation(self):
        with pytest.raises(ValueError, match="twice"):
            TypeAlignedLayout((("C", 2), ("C", 1)))
        with pytest.raises(ValueError):
            TypeAlignedLayout((("C", 0),))
        assert CNOCL_LAYOUT.n == 12

    def test_block_ranges(self):
        ranges = CNOCL_LAYOUT.block_ranges()
        assert list(ranges["C"]) == [0, 1, 2]
        assert list(ranges["O"]) == [6, 7, 8]

    def test_json_round_trip(self):
        for layout in (CNOCL_LAYOUT, SequentialLayout(7)):
            assert layout_from_json(layout_to_json(layout)) == layout
        with pytest.raises(ValueError):
            layout_from_json({})

    def test_infer_sequential_layout(self):
        assert infer_sequential_layout([ETHANOL, BENZENE]).n == 6
        with pytest.raises(ValueError):
            infer_sequential_layout([])


class TestEncode:
    def test_carbon_oxygen_pair_lands_in_type_blocks(self):
        mol = Molecule(("C", "O"), ((0, 1),), 0.0, "co")
        code = encode(mol, CNOCL_LAYOUT)
        assert code.space == GraphSpace(GraphSpaceKind.UNDIRECTED, 12)
        assert code.edges() == ((0, 6),)  # first carbon slot, first oxygen slot

    def test_codes_of_one_layout_share_their_space(self):
        mols = [Molecule(("C", "O"), ((0, 1),), 0.0), Molecule(("N", "C"), (), 1.0), ETHANOL]
        for layout in (CNOCL_LAYOUT, SequentialLayout(3)):
            first, *rest = (encode(mol, layout) for mol in mols)
            assert all(code.space is first.space for code in rest)
        directed = encode(ETHANOL, SequentialLayout(3), GraphSpaceKind.DIRECTED)
        assert directed.space is not encode(ETHANOL, SequentialLayout(3)).space

    def test_no_bonds_gives_empty_code(self):
        mol = Molecule(("C", "N"), (), 0.0)
        assert encode(mol, CNOCL_LAYOUT).bits == 0

    def test_sequential_reorderings_share_an_orbit(self):
        a = Molecule(("C", "O", "N"), ((0, 1), (1, 2)), 0.0)
        b = Molecule(("N", "O", "C"), ((2, 1), (1, 0)), 0.0)  # same molecule listed backwards
        layout = SequentialLayout(4)
        ca, cb = encode(a, layout), encode(b, layout)
        from graphgp.invariance import PermSubgroup, enumerate_orbit

        H = PermSubgroup.full(4)
        assert enumerate_orbit(H, ca).canonical == enumerate_orbit(H, cb).canonical

    def test_aligned_encoding_ignores_bond_order(self):
        bonds = ((0, 1), (1, 2), (0, 2))
        mol1 = Molecule(("C", "C", "O"), bonds, 0.0)
        mol2 = Molecule(("C", "C", "O"), tuple(reversed(bonds)), 0.0)
        assert encode(mol1, CNOCL_LAYOUT) == encode(mol2, CNOCL_LAYOUT)

    def test_capacity_errors_name_molecule_and_type(self):
        with pytest.raises(ValueError, match="benzene.*'C'"):
            encode(BENZENE, CNOCL_LAYOUT)
        with pytest.raises(ValueError, match="ethanol"):
            encode(ETHANOL, SequentialLayout(2))
        sulfur = Molecule(("S",), (), 0.0, "sulfur")
        with pytest.raises(ValueError, match="sulfur.*'S'"):
            encode(sulfur, CNOCL_LAYOUT)

    def test_decode_round_trip(self):
        heavy = ETHANOL.heavy()
        code = encode(ETHANOL, SequentialLayout(3))
        assert code.edges() == heavy.bonds
        assert code.space.code_from_edges(code.edges()) == code

    def test_within_type_reorder_keeps_projected_kernel(self):
        # two aligned encodings differing only in within-type atom order give
        # identical group-averaged kernel values against any third graph
        mol_a = Molecule(("C", "C", "O"), ((0, 2), (1, 2)), 0.0)
        mol_b = Molecule(("C", "C", "O"), ((1, 2), (0, 2)), 0.0)
        third = encode(Molecule(("C", "N"), ((0, 1),), 0.0), CNOCL_LAYOUT)
        H = subgroup_from_layout(CNOCL_LAYOUT)
        spec = KernelSpec(Heat(1.0))
        ka = invariant_kernel_exact(spec, H, encode(mol_a, CNOCL_LAYOUT), third)
        kb = invariant_kernel_exact(spec, H, encode(mol_b, CNOCL_LAYOUT), third)
        assert ka == pytest.approx(kb, rel=1e-12)


class TestFilterSmall:
    def test_ethanol_kept_under_cnocl_caps(self):
        kept = filter_small([ETHANOL], {"C", "N", "O", "Cl"}, 3)
        assert kept == [ETHANOL]

    def test_benzene_dropped(self):
        assert filter_small([BENZENE], {"C", "N", "O", "Cl"}, 3) == []

    def test_empty_caps_drop_everything(self):
        assert filter_small([ETHANOL, BENZENE], set(), 3) == []

    def test_disallowed_type_dropped(self):
        sulfur = Molecule(("C", "S"), ((0, 1),), 0.0)
        assert filter_small([sulfur], {"C", "N", "O", "Cl"}, 3) == []


class TestSubgroupFromLayout:
    def test_cnocl_blocks(self):
        H = subgroup_from_layout(CNOCL_LAYOUT)
        assert H.blocks == ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))
        assert H.order() == 6**4 == 1296

    def test_single_type_is_full_group(self):
        H = subgroup_from_layout(TypeAlignedLayout((("C", 5),)))
        assert H.order() == math.factorial(5)

    def test_all_singletons_is_trivial(self):
        H = subgroup_from_layout(TypeAlignedLayout((("C", 1), ("N", 1), ("O", 1))))
        assert H.order() == 1

    def test_sequential_layout_rejected(self):
        with pytest.raises(ValueError, match="type-aligned"):
            subgroup_from_layout(SequentialLayout(4))


class TestSplit:
    def test_disjoint_covering_and_seeded(self):
        train, test = train_test_split(20, 0.8, 7)
        assert len(train) == 16 and len(test) == 4
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(20))
        train2, test2 = train_test_split(20, 0.8, 7)
        assert np.array_equal(train, train2) and np.array_equal(test, test2)
        train3, _ = train_test_split(20, 0.8, 8)
        assert not np.array_equal(train, train3)

    def test_validation(self):
        with pytest.raises(ValueError):
            train_test_split(1, 0.8, 0)
        with pytest.raises(ValueError):
            train_test_split(10, 1.0, 0)


class TestMetrics:
    def test_perfect_prediction(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_two_point_hand_case(self):
        # errors 3 and 4: sqrt((9 + 16) / 2)
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), rel=1e-12)

    def test_constant_mean_prediction_scores_population_std(self, rng):
        ys = rng.standard_normal(50) * 3.0 + 10.0
        pred = np.full(50, ys.mean())
        assert rmse(pred, ys) == pytest.approx(ys.std(), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])

    def test_predictive_log_likelihood_matches_hand_density(self, rng):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
        kernel = IsotropicKernel(KernelSpec(Heat(1.0)), space)
        xs = [space.random_code(rng) for _ in range(6)]
        while len({x.bits for x in xs}) < 6:
            xs = [space.random_code(rng) for _ in range(6)]
        ys = rng.standard_normal(6)
        model = gp.fit(kernel, xs, ys, noise=0.1)
        test_x = [space.random_code(rng) for _ in range(3)]
        test_y = rng.standard_normal(3)
        got = predictive_log_likelihood(model, test_x, test_y)
        mean, var = gp.predict(model, test_x)
        expect = sum(
            -0.5 * (math.log(2 * math.pi * (v + 0.1)) + (y - m) ** 2 / (v + 0.1))
            for m, v, y in zip(mean, var, test_y)
        )
        assert got == pytest.approx(expect, rel=1e-10)

    def test_predictive_log_likelihood_on_original_scale(self, rng):
        # normalization must not change the reported density's scale
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
        kernel = IsotropicKernel(KernelSpec(Heat(1.0)), space)
        xs = [space.code_from_int(v) for v in range(8)]
        ys = rng.standard_normal(8) * 5.0 + 100.0
        model = gp.fit(kernel, xs, ys, noise=0.1, normalize_y=True)
        test_x = [space.code_from_int(v) for v in range(8, 12)]
        test_y = rng.standard_normal(4) * 5.0 + 100.0
        value = predictive_log_likelihood(model, test_x, test_y)
        mean, var = gp.predict(model, test_x)
        noise_orig = model.noise * model.y_std**2
        expect = sum(
            -0.5 * (math.log(2 * math.pi * (v + noise_orig)) + (y - m) ** 2 / (v + noise_orig))
            for m, v, y in zip(mean, var, test_y)
        )
        assert value == pytest.approx(expect, rel=1e-10)
        assert log_likelihood_of_prediction(model, mean, var, test_y) == value


class TestCodeFiles:
    def test_round_trip(self, tmp_path, rng):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 5)
        codes = [space.random_code(rng) for _ in range(10)]
        targets = rng.standard_normal(10)
        path = tmp_path / "codes.jsonl"
        write_codes(path, codes, targets, ids=[f"m{i}" for i in range(10)])
        back_codes, back_targets, back_ids = read_codes(path)
        assert back_codes == codes
        assert np.allclose(back_targets, targets)
        assert back_ids == [f"m{i}" for i in range(10)]

    def test_lines_are_the_graph_json_with_target_and_id(self, tmp_path, rng):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 5)
        codes = [space.random_code(rng) for _ in range(6)]
        targets = rng.standard_normal(6)
        ids = ["m0", None, "m2", None, "m4", "m5"]
        path = tmp_path / "codes.jsonl"
        write_codes(path, codes, targets, ids)
        want = []
        for code, target, mol_id in zip(codes, targets, ids):
            obj = dict(graph_to_json(code), target=float(target))
            if mol_id is not None:
                obj["id"] = mol_id
            want.append(json.dumps(obj))
        assert path.read_text().splitlines() == want
        write_codes(path, codes, targets)
        assert path.read_text().splitlines() == [
            json.dumps(dict(graph_to_json(c), target=float(t))) for c, t in zip(codes, targets)
        ]

    def test_mixed_spaces_rejected(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        lines = [
            {"kind": "U", "n": 4, "edges": [], "target": 0.0},
            {"kind": "U", "n": 5, "edges": [], "target": 1.0},
        ]
        path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
        with pytest.raises(ValueError, match="mix"):
            read_codes(path)
