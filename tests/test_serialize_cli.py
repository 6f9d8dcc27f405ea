import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from gampkit import build_named, build_square, congruence
from gampkit.cli import run
from gampkit.congruence import conc
from gampkit.diagram import apply_functor
from gampkit.errors import SchemaError
from gampkit.gamp import ga
from gampkit.poset import FinitePoset
from gampkit.pregamp import pga
from gampkit.semilattice import JoinSemilattice
from gampkit import serialize as ser


class TestRoundTrips:
    def test_semilattice(self):
        s = JoinSemilattice.product(JoinSemilattice.chain(2), JoinSemilattice.chain(3))
        data = ser.semilattice_to_json(s)
        back = ser.semilattice_from_json(json.loads(json.dumps(data)))
        assert back == s

    def test_algebra(self, m3):
        data = ser.algebra_to_json(m3)
        assert ser.algebra_from_json(json.loads(json.dumps(data))) == m3

    def test_partial_algebra(self):
        from gampkit.palg import LATTICE_TYPE, PartialAlgebra

        alg = PartialAlgebra.from_ops(LATTICE_TYPE, ["a", "b"], {"meet": {("a", "b"): "a"}})
        assert ser.algebra_from_json(ser.algebra_to_json(alg)) == alg

    def test_named_shorthand(self, m3):
        assert ser.algebra_from_json({"named": "M3"}) == m3
        assert ser.algebra_from_json("M3") == m3

    def test_poset(self):
        p = FinitePoset.square()
        assert ser.poset_from_json(ser.poset_to_json(p)) == p

    def test_pregamp(self, chain3):
        pg = pga(chain3)
        back = ser.pregamp_from_json(json.loads(json.dumps(ser.pregamp_to_json(pg))))
        assert back == pg

    def test_gamp(self, x1):
        g = ga(x1)
        back = ser.gamp_from_json(json.loads(json.dumps(ser.gamp_to_json(g))))
        assert back.inner == g.inner and back.pregamp == g.pregamp

    def test_diagram(self):
        sq = build_square("M3", 2)
        d = apply_functor(sq.a_square, "GA")
        data = ser.diagram_to_json(d)
        back = ser.diagram_from_json(json.loads(json.dumps(data)))
        for p in d.poset.elements:
            assert back.objects[p].pregamp == d.objects[p].pregamp

    def test_unknown_major_rejected(self):
        with pytest.raises(SchemaError):
            ser.semilattice_from_json({"schema": "otherkit/1", "elements": [], "zero": 0, "join": []})

    def test_missing_reference_reported(self, chain3):
        pg = pga(chain3)
        data = ser.pregamp_to_json(pg)
        data["dist"][0][2] = {"congruence": [["9"]]}
        with pytest.raises(SchemaError) as exc:
            ser.pregamp_from_json(data)
        assert "not in semilattice" in str(exc.value)

    @pytest.mark.parametrize("fault", ["outside first", "outside second", "listed twice", "missing"])
    def test_malformed_distance_list_names_the_pair(self, chain3, fault):
        data = ser.pregamp_to_json(pga(chain3))
        x, y, d = data["dist"][1]
        if fault.startswith("outside"):
            x, y = (9, y) if fault == "outside first" else (x, 9)
            data["dist"].append([x, y, d])
        elif fault == "listed twice":
            data["dist"].append([x, y, d])
        else:
            del data["dist"][1]
        with pytest.raises(SchemaError) as exc:
            ser.pregamp_from_json(data)
        assert repr((x, y)) in str(exc.value)


class TestDot:
    def test_two_chain(self):
        dot = ser.export_dot(FinitePoset.chain(2))
        assert dot.count("->") == 1

    def test_m3_hasse(self, m3):
        dot = ser.export_dot(m3)
        assert dot.count("->") == 6
        assert len([l for l in dot.splitlines() if l.endswith(";") and "->" not in l]) == 5 + 1

    def test_square_shape(self):
        sq = build_square("M3", 2)
        dot = ser.export_dot(apply_functor(sq.a_square, "GA"))
        assert dot.count("->") == 4


def lifting_bundle(algebras):
    """The GA image of an algebra diagram, with each node realized by its own
    algebra, as a diagram-verify --kind partial-lifting bundle."""
    d = apply_functor(algebras, "GA")
    data = ser.diagram_to_json(d)
    data["realizations"] = {
        str(p): {
            "ambient": ser.algebra_to_json(algebras.objects[p]),
            "chi": [[ser.encode_el(a), ser.encode_el(a)] for a in d.objects[p].sem.elements],
        }
        for p in d.poset.elements
    }
    return data


def _without_ambient(data):
    del data["realizations"]["0"]["ambient"]
    return data


def _chi_not_pairs(data):
    data["realizations"]["0"]["chi"] = [1, 2]
    return data


def _realization_not_object(data):
    data["realizations"]["0"] = 5
    return data


def _realizations_list(data):
    data["realizations"] = list(data["realizations"].values())
    return data


# Malformed realizations blocks: each a change to a well-formed
# partial-lifting bundle, with the words its refusal must contain.
REALIZATION_FAULTS = {
    "realization_without_ambient": (_without_ambient, "node 0: missing 'ambient'"),
    "chi_not_pairs": (_chi_not_pairs, "node 0: 'chi'"),
    "realization_not_object": (_realization_not_object, "node 0: expected a JSON object"),
    "realizations_list": (_realizations_list, "realizations: expected a JSON object"),
}


def _table_short(data):
    data["ops"]["meet"]["table"].pop()
    return data


def _tuple_twice(data):
    # meet(0, 0) listed again with another value
    data["ops"]["meet"]["defined"].append([0, 0])
    data["ops"]["meet"]["table"].append(1)
    return data


def _map_twice(data):
    arrow = data["arrows"]["0->1"]
    arrow["map"] = [[0, 1], *arrow["map"]]
    return data


def _sem_map_twice(data):
    arrow = data["arrows"]["0->1"]
    arrow["sem_map"] = [[arrow["sem_map"][0][0], arrow["sem_map"][-1][1]], *arrow["sem_map"]]
    return data


# Tables and maps that list too few values or one entry twice: each a change
# to a well-formed chain:2 algebra or partial-lifting bundle, with the words
# its refusal must contain. Read as given, each would load silently
# truncated or overwritten.
LISTING_FAULTS = {
    "table_short": (_table_short, "algebra: meet: 4 defined tuples but 3 values"),
    "tuple_twice": (_tuple_twice, "algebra: meet: tuple (0, 0) listed twice"),
    "map_twice": (_map_twice, "diagram: arrow '0->1': point 0 listed twice in 'map'"),
    "sem_map_twice": (_sem_map_twice, "listed twice in 'sem_map'"),
}


def with_unary_meet(gamp_data):
    """A gamp bundle whose algebras declare `meet` unary and define it nowhere:
    the operation names of the lattice signature with a wrong arity."""
    for alg in (gamp_data["inner"], gamp_data["outer"]["algebra"]):
        alg["type"] = [[n, 1 if n == "meet" else a] for n, a in alg["type"]]
        alg["ops"]["meet"] = {"defined": [], "table": []}
    return gamp_data


class TestCli:
    def write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_conc_m3(self, tmp_path, m3, capsys):
        path = self.write(tmp_path, "m3.json", ser.algebra_to_json(m3))
        code = run(["conc", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["elements"]) == 2

    def test_permutable_exit_codes(self, tmp_path, capsys):
        path = self.write(tmp_path, "c3.json", {"named": "chain:3"})
        assert run(["permutable", "--n", "2", path]) == 1
        capsys.readouterr()
        assert run(["permutable", "--n", "3", path]) == 0

    def test_quotient_semilattice(self, tmp_path, capsys):
        s = JoinSemilattice.chain(3)
        path = self.write(tmp_path, "s.json", ser.semilattice_to_json(s))
        assert run(["quotient", path, "--ideal", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["elements"]) == 2

    def test_gamp_check(self, tmp_path, x1, capsys):
        path = self.write(tmp_path, "g.json", ser.gamp_to_json(ga(x1)))
        assert run(["gamp-check", path, "--property", "strong"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "true"
        assert run(["gamp-check", path, "--property", "lattice_n_permutable", "--n", "3"]) == 0

    @pytest.mark.parametrize("which", ["n_permutable", "lattice_n_permutable"])
    def test_gamp_check_n_permutable_prints_no_witness(self, which, tmp_path, capsys):
        # a successful chain-condition check reports its status, not the
        # interpolants of every tuple
        path = self.write(tmp_path, "g.json", ser.gamp_to_json(ga(build_named("M3").algebra)))
        assert run(["gamp-check", path, "--property", which, "--n", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "true" and out["witness"] is None

    def test_diagram_verify_operational(self, tmp_path, capsys):
        sq = build_square("M3", 2)
        d = apply_functor(sq.a_square, "GA")
        path = self.write(tmp_path, "d.json", ser.diagram_to_json(d))
        assert run(["diagram-verify", path, "--kind", "operational"]) == 0

    def test_diagram_verify_partial_lifting(self, tmp_path, capsys):
        path = self.write(tmp_path, "d.json", lifting_bundle(build_square("M3", 2).a_square))
        assert run(["diagram-verify", path, "--kind", "partial-lifting", "--x-cap", "2"]) == 0

    def test_poset_commands(self, tmp_path, capsys):
        assert run(["poset", "--bm", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["elements"]) == 8
        spec = {
            "base": ser.poset_to_json(FinitePoset.chain(2)),
            "marks": [1],
            "branch": [[1, ["r"]]],
            "depth": 2,
        }
        path = self.write(tmp_path, "spec.json", spec)
        assert run(["poset", "--kposet", path, "--check-covers"]) == 0

    def test_buttress_cli(self, tmp_path, capsys):
        apath = self.write(tmp_path, "a.json", {"named": "M3"})
        ppath = self.write(tmp_path, "p.json", ser.poset_to_json(FinitePoset.chain(2)))
        assert run([
            "buttress", "--algebra", apath, "--poset", ppath,
            "--ideal", "0=0/x1",
        ]) == 0

    def test_repro_unliftable(self, capsys):
        assert run(["repro", "unliftable", "--K", "M3", "--n", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["facts"]["ok"]

    def test_repro_exhausted_enumeration_exit_2(self, monkeypatch, capsys):
        from gampkit import constructions

        monkeypatch.setattr(constructions, "MAX_NODES", 3)
        argv = ["repro", "unliftable", "--K", "M3", "--n", "2", "--exhaustive-bound", "1"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("unknown at bound: budget exhausted: more than 3 search nodes")

    def test_repro_exhausted_after_false_facts_exit_1(self, monkeypatch, capsys):
        from gampkit import constructions

        real_facts = constructions.verify_square_facts

        def failing_facts(square):
            return {**real_facts(square), "ok": False}

        monkeypatch.setattr(constructions, "verify_square_facts", failing_facts)
        monkeypatch.setattr(constructions, "MAX_NODES", 3)
        argv = ["repro", "unliftable", "--K", "M3", "--n", "2", "--exhaustive-bound", "1"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert not report["facts"]["ok"]
        assert "more than 3 search nodes" in report["exhaustive"]["note"]

    @pytest.mark.parametrize(
        "argv, refusal, over_con_bound",
        [
            pytest.param(
                ["M3", "--n", "2", "--exhaustive-bound", "2"], "padding bounds 0 and 1", [],
                id="padding-bound-2",
            ),
            pytest.param(
                ["M3", "--n", "3", "--exhaustive-bound", "1"], "carrier exceeds 16", [],
                id="carrier-cap",
            ),
            pytest.param(
                ["L2", "--n", "3", "--exhaustive-bound", "0"], "capped at 160 elements (got 343)",
                [343], id="L2-con-bound",
            ),
            pytest.param(
                ["M3", "--n", "5"], "power at node l has 1,048,576 elements, over POWER_BOUND",
                [], id="n5-power-bound",
            ),
        ],
    )
    def test_repro_refused_bound_exit_3(self, argv, refusal, over_con_bound, monkeypatch, capsys):
        # each refusal comes before the work it refuses: no Con of a node
        # over 30 elements is built on the way, and no power over CON_BOUND
        # elements has its tables built
        from gampkit import constructions

        real = congruence.conc

        def small_only(algebra, *args):
            if len(algebra) > 30:
                raise AssertionError(f"Con built on {len(algebra)} elements")
            return real(algebra, *args)

        squares = []
        real_build = constructions.build_square

        def recorded_build(*args):
            squares.append(real_build(*args))
            return squares[-1]

        monkeypatch.setattr(congruence, "conc", small_only)
        monkeypatch.setattr(constructions, "build_square", recorded_build)
        assert run(["repro", "unliftable", "--K", *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and refusal in err
        big = [a for sq in squares for a in sq.a_square.objects.values() if len(a) > congruence.CON_BOUND]
        assert [len(a) for a in big] == over_con_bound
        assert all("tables" not in vars(a) for a in big)

    @pytest.mark.parametrize("base", ["N5", "X1", "X2", "two", "chain:4"])
    def test_repro_unliftable_without_marked_elements_exit_3(self, base, capsys):
        assert run(["repro", "unliftable", "--K", base, "--n", "2"]) == 3
        assert "marked elements" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["conc", "{bad}"], id="not-json"),
            pytest.param(["conc", "{list}"], id="conc-list"),
            pytest.param(["conc", "{m3}", "--bound", "4"], id="conc-over-bound"),
            pytest.param(["gamp-check", "{list}", "--property", "strong"], id="gamp-check-list"),
            pytest.param(
                ["diagram-verify", "{list}", "--kind", "operational"], id="diagram-verify-list"
            ),
            pytest.param(["poset", "{list}"], id="poset-list"),
            pytest.param(["poset", "--kposet", "{list}"], id="kposet-list"),
            pytest.param(
                ["buttress", "--algebra", "{m3}", "--poset", "{chain2}", "--ideal", "0=zz/1"],
                id="buttress-foreign-element",
            ),
            pytest.param(
                ["buttress", "--algebra", "{m3}", "--poset", "{chain2}", "--ideal", "0=x1"],
                id="buttress-not-a-pair",
            ),
            pytest.param(
                ["permutable", "{c3}", "--witness", "0/zz"], id="witness-foreign-element"
            ),
            pytest.param(
                ["buttress", "--algebra", "{m3}", "--poset", "{chain2}", "--ideal", "7=0/x1"],
                id="buttress-ideal-unknown-node",
            ),
            pytest.param(
                ["buttress", "--algebra", "{m3}", "--poset", "{chain2}", "--ideal", "0/x1"],
                id="buttress-ideal-without-node",
            ),
            pytest.param(
                ["buttress", "--algebra", "{m3}", "--poset", "{chain2}", "--m-cap", "-1"],
                id="buttress-negative-m-cap",
            ),
            pytest.param(
                ["gamp-check", "{gm3}", "--property", "congruence_tractable", "--m-cap", "-1"],
                id="gamp-check-negative-m-cap",
            ),
            pytest.param(
                ["gamp-check", "{gm3}", "--property", "n_permutable"],
                id="gamp-check-n-permutable-without-n",
            ),
            pytest.param(
                ["gamp-check", "{gm3}", "--property", "lattice_n_permutable"],
                id="gamp-check-lattice-n-permutable-without-n",
            ),
            pytest.param(
                ["gamp-check", "{gm3}", "--property", "cuttable"], id="gamp-check-morphism-property"
            ),
            pytest.param(
                ["gamp-check", "{unary_meet}", "--property", "lattice_n_permutable", "--n", "2"],
                id="gamp-check-lattice-n-permutable-unary-meet",
            ),
            pytest.param(
                ["gamp-check", "{unary_meet}", "--property", "distance_generated_chains"],
                id="gamp-check-chains-unary-meet",
            ),
            pytest.param(
                ["gamp-check", "{gm3}", "--property", "nosuch"], id="gamp-check-unknown-property"
            ),
            pytest.param(
                ["diagram-verify", "{gm3}", "--kind", "operational"], id="diagram-verify-gamp"
            ),
            pytest.param(
                ["diagram-verify", "{lifting}", "--kind", "partial-lifting", "--x-cap", "-1"],
                id="diagram-verify-negative-x-cap",
            ),
            pytest.param(
                ["diagram-verify", "{no_arrows}", "--kind", "operational"],
                id="diagram-verify-without-arrows",
            ),
            pytest.param(
                ["diagram-verify", "{arrow_key}", "--kind", "operational"],
                id="diagram-verify-arrow-key-without-separator",
            ),
            pytest.param(
                ["diagram-verify", "{arrow_node}", "--kind", "operational"],
                id="diagram-verify-arrow-unknown-node",
            ),
            pytest.param(
                ["diagram-verify", "{arrow_map}", "--kind", "operational"],
                id="diagram-verify-arrow-without-map",
            ),
            pytest.param(
                ["diagram-verify", "{algebras}", "--kind", "operational"],
                id="diagram-verify-algebra-diagram",
            ),
            pytest.param(
                ["diagram-verify", "{kind_foo}", "--kind", "operational"],
                id="diagram-verify-unknown-kind",
            ),
            *(
                pytest.param(
                    ["diagram-verify", "{%s}" % name, "--kind", "partial-lifting"],
                    id=f"diagram-verify-{name.replace('_', '-')}",
                )
                for name in REALIZATION_FAULTS
            ),
            pytest.param(["conc", "{table_short}"], id="algebra-table-short"),
            pytest.param(["conc", "{tuple_twice}"], id="algebra-tuple-twice"),
            pytest.param(
                ["diagram-verify", "{map_twice}", "--kind", "partial-lifting"], id="diagram-map-twice"
            ),
            pytest.param(
                ["diagram-verify", "{sem_map_twice}", "--kind", "partial-lifting"],
                id="diagram-sem-map-twice",
            ),
            pytest.param(["quotient", "{list}", "--ideal", "#0"], id="quotient-list"),
            pytest.param(["quotient", "{number}", "--ideal", "#0"], id="quotient-number"),
            pytest.param(["quotient", "{sem}", "--ideal", "zz"], id="quotient-unknown-generator"),
            pytest.param(["quotient", "{sem}", "--ideal", "#2"], id="quotient-index-out-of-range"),
            pytest.param(["quotient", "{sem}", "--ideal", "#-1"], id="quotient-negative-index"),
            pytest.param(["quotient", "{sem}", "--ideal", "#x"], id="quotient-index-not-a-number"),
            pytest.param(["quotient", "{sem}", "--ideal", "#"], id="quotient-index-missing"),
            pytest.param(["quotient", "{sem}", "--ideal", "#²"], id="quotient-index-not-decimal"),
            pytest.param(
                ["permutable", "{m3}", "--witness", "x1/0", "--pairs", "x2/0", "--depth-bound", "-1"],
                id="witness-negative-depth-bound",
            ),
            pytest.param(
                ["permutable", "{m3}", "--witness", "x1/0", "--pairs", "x2/0", "--param-bound", "-1"],
                id="witness-negative-param-bound",
            ),
            pytest.param(["repro", "nosuch"], id="repro-unknown-target"),
            pytest.param(["repro", "unliftable", "--K", "chain:0"], id="repro-empty-chain"),
            pytest.param(["repro", "unliftable", "--K", "power:M3:0"], id="repro-empty-power"),
            pytest.param(["repro", "unliftable", "--K", "chain:x"], id="repro-chain-not-a-number"),
            pytest.param(["repro", "unliftable", "--K", "chain:"], id="repro-chain-without-length"),
            pytest.param(["repro", "unliftable", "--K", "power:M3"], id="repro-power-without-k"),
            pytest.param(
                ["repro", "unliftable", "--K", "power:M3:2:1"], id="repro-power-extra-part"
            ),
            pytest.param(["poset", "{list_element}"], id="poset-list-element"),
            pytest.param(["conc", "{op_not_in_type}"], id="algebra-op-not-in-type"),
            pytest.param(["conc", "{arity_not_int}"], id="algebra-arity-not-an-int"),
            pytest.param(["conc", "{ops_list}"], id="algebra-ops-not-an-object"),
            pytest.param(["poset", "{schema_int}"], id="schema-not-a-string"),
            pytest.param(["poset", "{schema_no_major}"], id="schema-without-major"),
            pytest.param(["conc", "{named_int}"], id="named-not-a-string"),
        ],
    )
    def test_malformed_json_exit_3(self, argv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        two_nodes = {
            "kind": "algebra",
            "poset": ser.poset_to_json(FinitePoset.chain(2)),
            "nodes": {"0": {"named": "two"}, "1": {"named": "two"}},
        }
        lifting = lifting_bundle(ser.diagram_from_json(
            {**two_nodes, "arrows": {"0->1": {"map": [[0, 0], [1, 1]]}}}
        ))
        paths = {
            name: self.write(tmp_path, f"{name}.json", fault(copy.deepcopy(lifting)))
            for name, (fault, _) in REALIZATION_FAULTS.items()
        }
        chain2 = ser.algebra_to_json(build_named("chain:2").algebra)
        for name, (fault, _) in LISTING_FAULTS.items():
            base = chain2 if name.startswith(("table", "tuple")) else lifting
            paths[name] = self.write(tmp_path, f"{name}.json", fault(copy.deepcopy(base)))
        paths.update({
            "no_arrows": self.write(tmp_path, "no_arrows.json", two_nodes),
            "arrow_key": self.write(
                tmp_path, "arrow_key.json", {**two_nodes, "arrows": {"01": {"map": []}}}
            ),
            "arrow_node": self.write(
                tmp_path, "arrow_node.json", {**two_nodes, "arrows": {"0->7": {"map": []}}}
            ),
            "arrow_map": self.write(
                tmp_path, "arrow_map.json", {**two_nodes, "arrows": {"0->1": {}}}
            ),
            "algebras": self.write(
                tmp_path, "algebras.json",
                {**two_nodes, "arrows": {"0->1": {"map": [[0, 0], [1, 1]]}}},
            ),
            "kind_foo": self.write(
                tmp_path, "kind_foo.json", {**two_nodes, "kind": "foo", "arrows": {}}
            ),
            "lifting": self.write(tmp_path, "lifting.json", lifting),
            "bad": str(bad),
            "list": self.write(tmp_path, "list.json", [1, 2]),
            "m3": self.write(tmp_path, "m3.json", {"named": "M3"}),
            "gm3": self.write(
                tmp_path, "gm3.json", ser.gamp_to_json(ga(build_named("M3").algebra))
            ),
            "unary_meet": self.write(
                tmp_path, "unary_meet.json",
                with_unary_meet(ser.gamp_to_json(ga(build_named("M3").algebra))),
            ),
            "c3": self.write(tmp_path, "c3.json", {"named": "chain:3"}),
            "chain2": self.write(
                tmp_path, "chain2.json", ser.poset_to_json(FinitePoset.chain(2))
            ),
            "number": self.write(tmp_path, "number.json", 5),
            "list_element": self.write(
                tmp_path, "list_element.json", {"elements": [[0], [1]], "leq": []}
            ),
            "op_not_in_type": self.write(tmp_path, "op_not_in_type.json", {
                "type": [["meet", 2]], "universe": [0],
                "ops": {"join": {"defined": [], "table": []}},
            }),
            "arity_not_int": self.write(
                tmp_path, "arity_not_int.json", {"type": [["meet", "2"]], "universe": [0], "ops": {}}
            ),
            "ops_list": self.write(
                tmp_path, "ops_list.json", {"type": [["meet", 2]], "universe": [0], "ops": []}
            ),
            "schema_int": self.write(
                tmp_path, "schema_int.json", {"schema": 5, "elements": [0], "leq": []}
            ),
            "schema_no_major": self.write(
                tmp_path, "schema_no_major.json", {"schema": "gampkit", "elements": [0], "leq": []}
            ),
            "named_int": self.write(tmp_path, "named_int.json", {"named": 5}),
            "sem": self.write(
                tmp_path, "sem.json", ser.semilattice_to_json(JoinSemilattice.chain(2))
            ),
        })
        assert run([a.format(**paths) for a in argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for name, (_, words) in {**REALIZATION_FAULTS, **LISTING_FAULTS}.items():
            if "{%s}" % name in argv:
                assert words in err
        if "{sem}" in argv:
            # a bad generator token is named back
            assert repr(argv[-1]) in err
        if "--K" in argv:
            # a lattice spec is named back, with the forms it may take
            assert repr(argv[-1]) in err and "power:NAME:k" in err

    @pytest.mark.parametrize("argv, bundle, message", [
        pytest.param(
            ["poset"], {"elements": [0, 1], "leq": [[0, 1], [1, 0]]},
            "antisymmetry fails", id="poset-antisymmetry",
        ),
        pytest.param(
            ["poset"], {"elements": [0, 1, 2], "leq": [[0, 1], [1, 2]]},
            "transitivity fails at (0, 1, 2)", id="poset-transitivity",
        ),
        pytest.param(
            ["poset"], {"elements": [0], "leq": [[0, 1]]},
            "relation leaves the universe at (0, 1)", id="poset-universe",
        ),
        pytest.param(
            ["gamp-check", "--property", "strong"],
            {"inner": {"named": "M3"}, "outer": ser.pregamp_to_json(pga(build_named("two").algebra))},
            "gamp: inner part is not a partial subalgebra of the outer", id="gamp-inner",
        ),
        pytest.param(
            ["diagram-verify", "--kind", "operational"],
            {
                "kind": "algebra",
                "poset": ser.poset_to_json(FinitePoset.chain(3)),
                "nodes": {p: {"named": "two"} for p in "012"},
                "arrows": {
                    "0->1": {"map": [[0, 0], [1, 1]]},
                    "1->2": {"map": [[0, 0], [1, 1]]},
                    "0->2": {"map": [[0, 0], [1, 0]]},
                },
            },
            "not a diagram: ('composition', (0, 1, 2))", id="diagram-composition",
        ),
    ])
    def test_invalid_structure_exit_3(self, argv, bundle, message, tmp_path, capsys):
        # loading validates what the constructors do not
        assert run([*argv, self.write(tmp_path, "in.json", bundle)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("change", [
        pytest.param({"depth": "2"}, id="depth-string"),
        pytest.param({"depth": 2.5}, id="depth-float"),
        pytest.param({"depth": None}, id="depth-null"),
        pytest.param({"depth": 0}, id="depth-0"),
        pytest.param({"depth": -1}, id="depth-negative"),
        pytest.param({"marks": [1, 1]}, id="repeated-mark"),
        pytest.param({"branch": [[1, ["r", "r"]]]}, id="repeated-branch-label"),
    ])
    def test_kposet_bad_spec_exit_3(self, change, tmp_path, capsys):
        spec = {
            "base": ser.poset_to_json(FinitePoset.chain(2)),
            "marks": [1],
            "branch": [[1, ["r"]]],
            "depth": 2,
            **change,
        }
        assert run(["poset", "--kposet", self.write(tmp_path, "spec.json", spec)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("arity", [-1, "2", 2.5, None])
    def test_bad_arity_is_named(self, arity, tmp_path, capsys):
        bundle = {"type": [["meet", arity]], "universe": [0], "ops": {}}
        assert run(["conc", self.write(tmp_path, "a.json", bundle)]) == 3
        assert "is not [name, arity >= 0]" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["7=0/x1", "0/x1"])
    def test_buttress_bad_ideal_is_named(self, token, tmp_path, capsys):
        apath = self.write(tmp_path, "a.json", {"named": "M3"})
        ppath = self.write(tmp_path, "p.json", ser.poset_to_json(FinitePoset.chain(2)))
        argv = ["buttress", "--algebra", apath, "--poset", ppath, "--ideal", token]
        assert run(argv) == 3
        assert repr(token) in capsys.readouterr().err

    @pytest.mark.parametrize("argv, token", [
        pytest.param(["quotient", "{sem}", "--ideal=--1"], "--1", id="ideal"),
        pytest.param(["quotient", "{sem}", "--ideal=#--1"], "#--1", id="ideal-index"),
        pytest.param(["quotient", "{sem}", "--ideal=1,-"], "-", id="ideal-bare-minus"),
        pytest.param(["permutable", "{c3}", "--witness=--1/0"], "--1", id="witness"),
        pytest.param(["permutable", "{c3}", "--witness=0/1", "--pairs=0/--1"], "--1", id="pairs"),
    ])
    def test_bad_integer_token_is_named(self, argv, token, tmp_path, capsys):
        paths = {
            "sem": self.write(
                tmp_path, "sem.json", ser.semilattice_to_json(JoinSemilattice.chain(2))
            ),
            "c3": self.write(tmp_path, "c3.json", {"named": "chain:3"}),
        }
        assert run([a.format(**paths) for a in argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(token) in err
        assert "invalid literal" not in err

    def test_internal_error_exit_4(self, tmp_path, monkeypatch, capsys):
        # a crash inside a command: cmd_conc reads congruence.conc when it
        # runs, while the parser, built once, holds cmd_conc itself
        def crash(*args, **kwargs):
            raise KeyError("boom")

        monkeypatch.setattr(congruence, "conc", crash)
        path = self.write(tmp_path, "m3.json", {"named": "M3"})
        assert run(["conc", path]) == 4
        assert capsys.readouterr().err.startswith("internal error: KeyError")

    def test_dot_output(self, tmp_path, m3, capsys):
        path = self.write(tmp_path, "m3.json", ser.algebra_to_json(m3))
        assert run(["conc", path, "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_deterministic_reports(self, tmp_path, m3, capsys):
        path = self.write(tmp_path, "m3.json", ser.algebra_to_json(m3))
        run(["conc", path])
        first = capsys.readouterr().out
        run(["conc", path])
        second = capsys.readouterr().out
        assert first == second


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4))
def test_semilattice_roundtrip_property(a, b):
    s = JoinSemilattice.product(JoinSemilattice.chain(a), JoinSemilattice.chain(b))
    data = json.loads(json.dumps(ser.semilattice_to_json(s)))
    assert ser.semilattice_from_json(data) == s


class TestWitnessMode:
    def write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_found(self, tmp_path, capsys):
        path = self.write(tmp_path, "c3.json", {"named": "chain:3"})
        assert run(["permutable", path, "--witness", "0/2", "--pairs", "0/1,1/2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["found"] and out["steps"] >= 1

    def test_no_containment(self, tmp_path, capsys):
        path = self.write(tmp_path, "c3.json", {"named": "chain:3"})
        assert run(["permutable", path, "--witness", "0/2", "--pairs", "0/1"]) == 1

    def test_unknown_at_bound(self, tmp_path, capsys):
        path = self.write(tmp_path, "m3.json", {"named": "M3"})
        code = run([
            "permutable", path, "--witness", "x2/x3", "--pairs", "0/x1",
            "--depth-bound", "0",
        ])
        assert code == 2


def non_pregamp_bundle(broken):
    """A 3-point pregamp bundle (unary f defined nowhere, distances in the
    3-chain) whose distance breaks one axiom: the triangle, symmetry,
    separation off the diagonal, or a nonzero diagonal."""
    points = ["a", "b", "c"]
    d = {(x, y): 0 if x == y else 2 for x in points for y in points}
    if broken == "triangle":
        for pair in (("a", "c"), ("c", "b")):
            d[pair] = d[pair[::-1]] = 1
    elif broken == "symmetry":
        d[("a", "b")] = 1
    elif broken == "separation":
        d[("a", "b")] = d[("b", "a")] = 0
    elif broken == "diagonal":
        d[("a", "a")] = 1
    return {
        "algebra": {
            "type": [["f", 1]], "universe": points, "ops": {"f": {"defined": [], "table": []}},
        },
        "semilattice": ser.semilattice_to_json(JoinSemilattice.chain(3)),
        "dist": [[x, y, v] for (x, y), v in d.items()],
    }


class TestQuotientBundles:
    def write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("broken, axiom", [
        ("triangle", "triangle"),
        ("symmetry", "symmetry"),
        ("separation", "separation"),
        ("diagonal", "separation"),
    ])
    @pytest.mark.parametrize("command", ["pregamp-quotient", "gamp-quotient", "gamp-check"])
    def test_non_pregamp_bundle_exit_3(self, command, broken, axiom, tmp_path, capsys):
        pg = non_pregamp_bundle(broken)
        if command == "pregamp-quotient":
            argv = ["quotient", self.write(tmp_path, "pg.json", pg), "--ideal", "0"]
        else:
            path = self.write(tmp_path, "g.json", {"inner": pg["algebra"], "outer": pg})
            argv = (
                ["quotient", path, "--ideal", "0"] if command == "gamp-quotient"
                else ["gamp-check", path, "--property", "n_permutable", "--n", "2"]
            )
        assert run(argv) == 3
        assert f"the {axiom} axiom fails" in capsys.readouterr().err

    def test_pregamp_quotient_by_index(self, tmp_path, x1, capsys):
        path = self.write(tmp_path, "pg.json", ser.pregamp_to_json(pga(x1)))
        assert run(["quotient", path, "--ideal", "#1"]) == 0
        out = json.loads(capsys.readouterr().out)
        back = ser.pregamp_from_json(out)
        assert len(back.carrier) < len(x1.universe)

    def test_gamp_quotient_by_index(self, tmp_path, x1, capsys):
        path = self.write(tmp_path, "g.json", ser.gamp_to_json(ga(x1)))
        assert run(["quotient", path, "--ideal", "#1"]) == 0
        out = json.loads(capsys.readouterr().out)
        back = ser.gamp_from_json(out)
        assert len(back.outer) < len(x1.universe)

    @pytest.mark.parametrize("fault, error, message", [
        ("foreign-join", ValueError, "join table not total at (1, 2)"),
        ("duplicate-elements", ValueError, "duplicate elements"),
        ("foreign-zero", ValueError, "zero not an element"),
        ("ragged-rows", SchemaError, "semilattice: list index out of range"),
        ("long-row", SchemaError, "semilattice: the join row of 2 has 4 entries for 3 elements"),
        ("extra-row", SchemaError, "semilattice: 4 join rows for 3 elements"),
    ])
    def test_malformed_semilattice_exit_3(self, fault, error, message, tmp_path, capsys):
        # outside input the reader refuses, by the loader and by the CLI
        data = ser.semilattice_to_json(JoinSemilattice.chain(3))
        if fault == "foreign-join":
            data["join"][1][2] = data["join"][2][1] = 7
        elif fault == "duplicate-elements":
            data["elements"] = [0, 1, 1]
        elif fault == "foreign-zero":
            data["zero"] = 5
        elif fault == "long-row":
            data["join"][2] = [2, 2, 2, 2]
        elif fault == "extra-row":
            data["join"].append([0, 1, 2])
        else:
            data["join"][2] = [2, 2]
        with pytest.raises(error) as raised:
            ser.semilattice_from_json(data)
        assert type(raised.value) is error and str(raised.value) == message
        path = self.write(tmp_path, "s.json", data)
        assert run(["quotient", path, "--ideal", "#0"]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_token_exit_3(self, tmp_path, capsys):
        s = JoinSemilattice.chain(3)
        path = self.write(tmp_path, "s.json", ser.semilattice_to_json(s))
        assert run(["quotient", path, "--ideal", "nope"]) == 3

    def test_conc_too_large_exit_3(self, tmp_path, capsys):
        path = self.write(tmp_path, "m3.json", {"named": "M3"})
        assert run(["conc", path, "--bound", "2"]) == 3


def test_repro_dot_shapes(capsys):
    assert run(["repro", "unliftable", "--K", "M3", "--n", "2", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.count("digraph") == 2 and out.count("->") == 8


def test_parser_is_built_once_and_runs_share_no_state(capsys):
    # run parses with one argparse tree per process; an option one run sets
    # is back at its default in the next run that omits it
    from unittest import mock

    from gampkit import cli

    cli._parser.cache_clear()
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as built:
        assert run(["repro", "unliftable", "--K", "L2", "--n", "3", "--format", "text"]) == 0
        capsys.readouterr()
        assert run(["repro", "unliftable", "--n", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
    assert built.call_count == 1
    assert (report["K"], report["n"]) == ("M3", 3)
    full = [
        "buttress", "--algebra", "a.json", "--poset", "p.json", "--ideal", "0=0/x1",
        "--ideal", "1=x1/1", "--chains", "--n", "3", "--m-cap", "1", "--format", "dot",
    ]
    bare = ["buttress", "--algebra", "b.json", "--poset", "q.json"]
    shared = cli._parser()
    first = vars(shared.parse_args(full))
    assert first["ideal"] == ["0=0/x1", "1=x1/1"] and first["chains"]
    assert vars(shared.parse_args(bare)) == vars(cli.build_parser().parse_args(bare))
    assert vars(shared.parse_args(bare))["ideal"] == []
