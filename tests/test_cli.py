import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partact import cli, harness
from partact.cli import (
    ParseError,
    ValidationError,
    _emit,
    analyze,
    instance_digest,
    main,
    parse_instance,
    parse_instance_with_labels,
    serialize_instance,
)
from partact.groups import build_group
from partact.harness import corpus
from partact.pactions import global_action, random_partial_action
from scan_reference import reference_serialize_instance

SWAP_PAIR_DOC = {
    "group": {"family": "cyclic", "n": 2},
    "carrier": ["a", "b", "c"],
    "domains": {"0": ["a", "b", "c"], "1": ["a", "b"]},
    "maps": {
        "0": [["a", "a"], ["b", "b"], ["c", "c"]],
        "1": [["a", "b"], ["b", "a"]],
    },
}


def _write_swap_pair(tmp_path, doc=None):
    path = tmp_path / "swap_pair.json"
    path.write_text(json.dumps(doc if doc is not None else SWAP_PAIR_DOC))
    return str(path)


def test_parse_swap_pair():
    pa, labels = parse_instance_with_labels(json.dumps(SWAP_PAIR_DOC))
    assert labels == ["a", "b", "c"]
    assert pa.domain(1) == frozenset({0, 1})
    assert pa.theta(1, 0) == 1


def test_parse_missing_identity_domain():
    doc = dict(SWAP_PAIR_DOC)
    doc["domains"] = {"0": ["a", "b"], "1": ["a", "b"]}
    doc["maps"] = {"0": [["a", "a"], ["b", "b"]], "1": [["a", "b"], ["b", "a"]]}
    with pytest.raises(ValidationError) as err:
        parse_instance(json.dumps(doc))
    assert "identity domain" in str(err.value)


def test_parse_malformed_pair_has_location():
    doc = dict(SWAP_PAIR_DOC)
    doc["maps"] = {"0": [["a", "a"], ["b", "b"], ["c", "c"]], "1": [["a"]]}
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(doc))
    assert "maps.1" in str(err.value)


def test_parse_rejects_a_source_label_listed_twice(tmp_path, capsys):
    doc = dict(SWAP_PAIR_DOC, maps={"0": SWAP_PAIR_DOC["maps"]["0"], "1": [["a", "a"], ["b", "a"], ["a", "b"]]})
    with pytest.raises(ParseError, match="source label 'a' is listed twice") as err:
        parse_instance(json.dumps(doc))
    assert err.value.location == "maps.1"
    assert main(["validate", _write_swap_pair(tmp_path, doc)]) == 1
    assert "listed twice (at maps.1)" in capsys.readouterr().err


def test_parse_rejects_a_domain_label_listed_twice(tmp_path, capsys):
    # The repeat would otherwise vanish in the domain's set and still validate.
    doc = dict(SWAP_PAIR_DOC, domains={"0": ["a", "b", "c"], "1": ["a", "b", "a"]})
    with pytest.raises(ParseError, match="a domain lists a label twice") as err:
        parse_instance(json.dumps(doc))
    assert err.value.location == "domains.1"
    assert main(["validate", _write_swap_pair(tmp_path, doc)]) == 1
    assert "lists a label twice (at domains.1)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, location",
    [
        ("group", {"family": "cyclic", "n": "x"}, "group.n"),
        ("group", {"family": "cyclic", "n": None}, "group.n"),
        ("group", {"family": ["cyclic"], "n": 2}, "group.family"),
        ("group", {"table": [[0, "1"], [1, 0]]}, "group.table"),
        ("domains", [[0]], "domains"),
        ("maps", [[0]], "maps"),
        ("carrier", 5, "carrier"),
        ("domains", {"0": ["a", "b", "c"], "1": 5}, "domains.1"),
        ("maps", {"0": [["a", "a"], ["b", "b"], ["c", "c"]], "1": 5}, "maps.1"),
        ("domains", {"0": ["a", "b", "c"], "1": ["a", "b"], " 1": []}, "domains"),
        ("maps", {"0": [["a", "a"], ["b", "b"], ["c", "c"]], "+1": []}, "maps"),
    ],
)
def test_parse_malformed_fields_have_location(field, value, location):
    doc = dict(SWAP_PAIR_DOC, **{field: value})
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(doc))
    assert err.value.location == location


@pytest.mark.parametrize("family", ["cyclic", "dihedral", "symmetric"])
def test_group_order_cap_is_checked_before_building(tmp_path, capsys, family):
    doc = dict(SWAP_PAIR_DOC, group={"family": family, "n": 1_000_000})
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(doc))
    assert "exceeds the cap 24" in str(err.value)
    assert main(["analyze", _write_swap_pair(tmp_path, doc)]) == 1
    assert "exceeds the cap 24" in capsys.readouterr().err


def test_cli_non_utf8_instance_exit_1(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"carrier": ["\xe9"]}')
    assert main(["validate", str(path)]) == 1
    assert "byte 14" in capsys.readouterr().err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 30) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids, max_size=3),
    max_leaves=6,
)
# Places in a valid document where a fuzzed value goes, so that most
# documents get past the first checks and reach the later ones.
_PATHS = st.sampled_from(
    [
        ("group",), ("group", "n"), ("group", "family"), ("group", "table"),
        ("group", "table", 1), ("group", "table", 1, 0), ("carrier",), ("carrier", 2),
        ("domains",), ("domains", "1"), ("domains", "1", 0), ("domains", "x"),
        ("maps",), ("maps", "1"), ("maps", "1", 0), ("maps", "1", 0, 1), ("maps", "01"),
    ]
)


def _mutated(table_group, edits):
    doc = json.loads(json.dumps(SWAP_PAIR_DOC))
    if table_group:
        doc["group"] = {"table": [[0, 1], [1, 0]]}
    for path, value in edits:
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # the path does not exist in this document
    return json.dumps(doc)


_MUTANTS = st.builds(
    _mutated, st.booleans(), st.lists(st.tuples(_PATHS, _JSON), min_size=1, max_size=2)
)


@given(_MUTANTS | _JSON.map(json.dumps) | st.text(max_size=12))
@settings(max_examples=400, deadline=None)
def test_fuzz_parse_raises_only_domain_errors(text):
    try:
        parse_instance(text)
    except (ParseError, ValidationError):
        pass


def test_parse_bad_json_reports_position():
    with pytest.raises(ParseError) as err:
        parse_instance("{not json")
    assert "line" in str(err.value)
    with pytest.raises(ParseError):
        parse_instance("[" * 100_000)


def test_round_trip(swap_pair):
    text = serialize_instance(swap_pair)
    back = parse_instance(text)
    # Canonical serialization is a fixpoint, so digests agree.
    assert serialize_instance(back) == text
    assert instance_digest(back) == instance_digest(swap_pair)


def test_serialization_from_the_table_matches_the_dict_views():
    """serialize_instance reads the table and builds no dict view; its text
    is byte for byte the one written from the domains and maps, with the
    default labels and with labels whose string order is not the points'."""
    instances = corpus(20260808, 100) + [
        random_partial_action(seed, spec, 48, 0.5)
        for seed, spec in enumerate((("cyclic", 24), ("dihedral", 12), ("symmetric", 4)))
    ]
    for pa in instances:
        text = serialize_instance(pa)
        assert "maps" not in pa.__dict__ and "domains" not in pa.__dict__
        assert text == reference_serialize_instance(pa)
        assert instance_digest(pa) == hashlib.sha256(text.encode()).hexdigest()
        labels = [f"p{x}" if x % 3 else 10 * x for x in pa.points.tolist()]
        assert serialize_instance(pa, labels) == reference_serialize_instance(pa, labels)


def test_round_trip_with_labels():
    pa, labels = parse_instance_with_labels(json.dumps(SWAP_PAIR_DOC))
    text = serialize_instance(pa, labels)
    pa2, labels2 = parse_instance_with_labels(text)
    assert labels2 == labels
    assert pa2.domains == pa.domains and pa2.maps == pa.maps


def test_analyze_swap_pair(swap_pair):
    report = analyze(swap_pair)
    assert report["rokhlin"]["dimension"] == 0
    assert report["crossedProduct"]["blocks"] == [1, 2]
    assert report["fixedPoint"]["blocks"] == [1, 1]
    assert report["morita"]["equivalent"] is True
    assert report["freeness"]["free"] is True
    assert report["globalization"]["envelopeSize"] == 4
    assert set(report["rokhlin"]) == {"dimension", "certificate"}
    assert report["schemaVersion"] == 3
    assert "integralityResidual" not in report["crossedProduct"]


def test_analyze_fixed_single(fixed_single):
    report = analyze(fixed_single)
    assert report["rokhlin"]["dimension"] == "infinity"
    assert report["morita"]["equivalent"] is False
    assert report["morita"]["hypothesisFinite"] is False
    assert report["morita"]["bimodule"]["spanDimension"] == 1


def test_analyze_idle_triple(idle_triple):
    report = analyze(idle_triple)
    assert report["rokhlin"]["dimension"] == 0
    assert report["crossedProduct"]["dimension"] == 3
    assert report["crossedProduct"]["blocks"] == [1, 1, 1]
    cert = report["rokhlin"]["certificate"]
    assert cert["d"] == 0
    assert all(v == "1/1" for v in cert["levels"][0].values())


def test_analyze_deterministic(swap_pair):
    assert analyze(swap_pair, seed=3) == analyze(swap_pair, seed=3)


def test_analyze_does_not_depend_on_the_document_order(tmp_path, capsys):
    """C2 fixing both points of {a, b}: the carrier and the pairs of each map
    listed in either order make one instance, and one report.  The freeness
    witness is the least g, then the least point, with theta_g fixing it."""
    both = {"0": ["a", "b"], "1": ["a", "b"]}
    docs = [
        {"group": {"family": "cyclic", "n": 2}, "carrier": ["a", "b"], "domains": both,
         "maps": {"0": [["a", "a"], ["b", "b"]], "1": [["a", "a"], ["b", "b"]]}},
        {"group": {"family": "cyclic", "n": 2}, "carrier": ["b", "a"], "domains": both,
         "maps": {"0": [["b", "b"], ["a", "a"]], "1": [["a", "a"], ["b", "b"]]}},
    ]
    outputs = []
    for i, doc in enumerate(docs):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["freeness"]["witness"] == [1, 0]


def _regular_s4_action():
    G = build_group(("symmetric", 4))
    pts = range(G.order)
    return [global_action(G, pts, {g: {x: G.mul(g, x) for x in pts} for g in G.elements()})]


@pytest.mark.parametrize(
    "instances, digest",
    [
        (lambda: corpus(20260808, 100), "8fb1e8c2a1d34d53808955b6a15926d8f7625ba9a575ada1562fe25f29a4ef98"),
        (_regular_s4_action, "d9776373fe5bbb03f280f52c12297fb4d13fff77709c4a9a7beaddb014345108"),
    ],
    ids=["corpus", "regular-s4"],
)
def test_default_analyze_output_is_pinned(instances, digest, capsys):
    """The default report is byte-identical: sha256 of everything `partact
    analyze` prints, instance after instance, at the default seed."""
    for pa in instances():
        _emit(analyze(pa))
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_validate_and_analyze(tmp_path, capsys):
    path = _write_swap_pair(tmp_path)
    assert main(["validate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True
    assert main(["analyze", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rokhlin"]["dimension"] == 0


def test_cli_towers(tmp_path, capsys):
    path = _write_swap_pair(tmp_path)
    assert main(["towers", "--d", "0", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exists"] is True
    assert out["certificate"]["d"] == 0


def test_cli_towers_nonexistence(tmp_path, capsys):
    doc = {
        "group": {"family": "cyclic", "n": 2},
        "carrier": ["p"],
        "domains": {"0": ["p"], "1": ["p"]},
        "maps": {"0": [["p", "p"]], "1": [["p", "p"]]},
    }
    path = _write_swap_pair(tmp_path, doc)
    assert main(["towers", "--d", "1", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exists"] is False
    assert out["nonexistence"] == {"orbit": [0], "parallelArrows": [[0, 0, 1]]}


def test_towers_dimension_cap_is_checked_before_reading(monkeypatch, capsys, tmp_path):
    """Above MAX_D `towers` is a usage error before the instance is read (a
    missing file would be exit 1) or any tower is built (towers_exist fails
    if called), even at a d that would run out of memory; at the cap it runs."""

    class Built(Exception):
        pass

    def build(*args, **kwargs):
        raise Built

    monkeypatch.setattr(cli, "towers_exist", build)
    for d in (cli.MAX_D + 1, 100000000):
        with pytest.raises(SystemExit) as exc:
            main(["towers", "--d", str(d), str(tmp_path / "missing.json")])
        assert exc.value.code == 2
        assert f"argument --d: must be at most {cli.MAX_D}, got {d}" in capsys.readouterr().err
    with pytest.raises(Built):
        main(["towers", "--d", str(cli.MAX_D), _write_swap_pair(tmp_path)])


def test_cli_bad_instance_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["analyze", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_malformed_instance_is_a_domain_error_exit_1(tmp_path, capsys):
    doc = dict(SWAP_PAIR_DOC, maps={"0": SWAP_PAIR_DOC["maps"]["0"], "1": [["a", "b"], ["b", "b"]]})
    assert main(["globalize", _write_swap_pair(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: instance does not validate: theta_1 is not a bijection")
    assert "internal error" not in err


@pytest.mark.parametrize("exc", [AssertionError("envelope does not extend theta_1"), MemoryError()])
def test_cli_internal_failure_exit_3_dumps_the_instance(tmp_path, capsys, monkeypatch, exc):
    def broken(pa):
        raise exc

    monkeypatch.setattr(cli, "globalize", broken)
    path = _write_swap_pair(tmp_path)
    original, labels = parse_instance_with_labels(json.dumps(SWAP_PAIR_DOC))
    for command in ("globalize", "analyze"):
        assert main([command, path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        line, dump = err.splitlines()
        assert line == f"internal error: {type(exc).__name__}: {exc}"
        # The dump is an instance document with the input's labels.
        again, again_labels = parse_instance_with_labels(dump)
        assert again_labels == labels
        assert again.group.table == original.group.table
        assert (again.carrier, again.domains, again.maps) == (original.carrier, original.domains, original.maps)
        replay = tmp_path / "dump.json"
        replay.write_text(dump)
        assert main(["validate", str(replay)]) == 0
        assert json.loads(capsys.readouterr().out)["instanceDigest"] == instance_digest(original)


def test_cli_internal_failure_without_an_instance_exit_3(capsys, monkeypatch):
    def broken(seed, count):
        raise AssertionError("check suite broke")

    monkeypatch.setattr(harness, "run_all_checks", broken)  # _cmd_check imports it when run
    assert main(["check", "--count", "1"]) == 3
    assert capsys.readouterr().err == "internal error: AssertionError: check suite broke\n"


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["towers", "--d", "-1", "INSTANCE"], "argument --d: must be an integer >= 0"),
        (["grid", "interval", "--delta", "x"], "argument --delta: not a rational number"),
        (["grid", "circle-pair", "--eps", "1/x"], "argument --eps: not a rational number"),
        (["grid", "circle-pair", "--eps", "1/0"], "argument --eps: not a rational number"),
        (["grid", "circle-pair", "--m", "8"], "too coarse"),
        (["grid", "circle-pair", "--m", "17"], "needs an even grid"),
        (["grid", "interval", "--m", "7"], "needs an even grid"),
        (["grid", "circle-pair", "--restarts", "0"], "argument --restarts: must be an integer >= 1"),
        (["grid", "circle-pair", "--restarts", "-1"], "argument --restarts: must be an integer >= 1"),
        (["grid", "circle-pair", "--lipschitz", "-1"], "argument --lipschitz: must be an integer >= 0"),
        (["check", "--count", "-3"], "argument --count: must be an integer >= 1"),
        (["check", "--count", "0"], "argument --count: must be an integer >= 1"),
        (["grid", "interval", "--m", "0"], "grid with m = 0 is too coarse; need m >= 2"),
        (["grid", "circle-pair-global", "--m", "-2"], "grid with m = -2 is too coarse; need m >= 2"),
        (["grid", "circle-pair", "--seed", "-1"], "argument --seed: must be an integer >= 0"),
    ],
)
def test_cli_bad_arguments_are_usage_errors(tmp_path, capsys, argv, message):
    argv = [_write_swap_pair(tmp_path) if a == "INSTANCE" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: partact") and message in err


def test_cli_globalize_and_decompose(tmp_path, capsys):
    path = _write_swap_pair(tmp_path)
    assert main(["globalize", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["envelopeSize"] == 4
    assert main(["decompose", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["strata"]["2"] == [0, 1]
    assert out["parts"] is None


def test_cli_decompose_parts(tmp_path, capsys):
    """Two orbit classes of 2-tuples in C4: {1, g} ~ {1, g^3} and {1, g^2}."""
    doc = {
        "group": {"family": "cyclic", "n": 4},
        "carrier": ["a", "b", "c", "d"],
        "domains": {"0": ["a", "b", "c", "d"], "1": ["c"], "2": ["a", "b"], "3": ["d"]},
        "maps": {
            "0": [["a", "a"], ["b", "b"], ["c", "c"], ["d", "d"]],
            "1": [["d", "c"]],
            "2": [["a", "b"], ["b", "a"]],
            "3": [["c", "d"]],
        },
    }
    path = _write_swap_pair(tmp_path, doc)
    assert main(["decompose", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {
        "instanceDigest": instance_digest(parse_instance(json.dumps(doc))),
        "strata": {"1": [], "2": [0, 1, 2, 3], "3": [], "4": []},
        "parts": [
            {
                "representativeTuple": [0, 1],
                "points": [2, 3],
                "stabilizerOrder": 1,
                "subsystemCarrier": [2],
            },
            {
                "representativeTuple": [0, 2],
                "points": [0, 1],
                "stabilizerOrder": 2,
                "subsystemCarrier": [0, 1],
            },
        ],
        "decomposableN": 2,
    }


@pytest.mark.parametrize("model", ["interval", "circle-pair", "circle-pair-global"])
def test_grid_size_cap_is_checked_before_building(monkeypatch, capsys, model):
    """Above MAX_GRID_M the grid command is a usage error before any model
    is built (the builders fail if called), and it allocates nothing sizable;
    at the cap the model is built."""
    from partact import gridtowers

    class Built(Exception):
        pass

    def build(*args, **kwargs):
        raise Built

    for name in ("interval_half_shift", "punctured_circle_pair", "punctured_circle_pair_global"):
        monkeypatch.setattr(gridtowers, name, build)
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["grid", model, "--m", "4000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2 and peak < 2**20
    assert f"argument --m: must be at most {cli.MAX_GRID_M}, got 4000000" in capsys.readouterr().err
    with pytest.raises(Built):
        main(["grid", model, "--m", str(cli.MAX_GRID_M)])


@pytest.mark.parametrize("model", ["interval", "circle-pair", "circle-pair-global"])
def test_grid_dimension_cap_is_checked_before_building(monkeypatch, capsys, model):
    """Above MAX_D the grid command is a usage error before any model
    is built (the builders fail if called); at the cap the model is built."""
    from partact import gridtowers

    class Built(Exception):
        pass

    def build(*args, **kwargs):
        raise Built

    for name in ("interval_half_shift", "punctured_circle_pair", "punctured_circle_pair_global"):
        monkeypatch.setattr(gridtowers, name, build)
    with pytest.raises(SystemExit) as exc:
        main(["grid", model, "--d", "200"])
    assert exc.value.code == 2
    assert f"argument --d: must be at most {cli.MAX_D}, got 200" in capsys.readouterr().err
    with pytest.raises(Built):
        main(["grid", model, "--d", str(cli.MAX_D)])


def test_analyze_leaves_numpy_ma_unimported(tmp_path):
    """A one-shot analyze never imports numpy.ma (about 10-30 ms to import),
    here on the swap pair and the first corpus instances."""
    code = (
        "import sys\n"
        "from partact import cli, harness\n"
        f"assert cli.main(['analyze', {_write_swap_pair(tmp_path)!r}]) == 0\n"
        "for pa in harness.corpus(0, 20):\n"
        "    cli.analyze(pa)\n"
        "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stderr.strip() == "False"


def test_cli_grid_interval(capsys):
    assert main(["grid", "interval", "--m", "32", "--delta", "1/8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["residualWithinBound"] is True


def test_cli_grid_circle_search_with_trace(tmp_path, capsys):
    trace = tmp_path / "trace.tsv"
    assert (
        main(
            [
                "grid", "circle-pair", "--m", "32", "--d", "1",
                "--restarts", "8", "--eps", "1/100", "--trace", str(trace),
            ]
        )
        == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert "bestResidual" in out
    lines = trace.read_text().strip().splitlines()
    assert lines[0].split("\t") == ["restart", "residual", "best", "sweeps"]
    assert len(lines) >= 2
    assert all(0 < int(line.split("\t")[3]) <= 160 + 1400 for line in lines[1:])


def test_cli_grid_trace_path_fails_before_the_search(tmp_path, monkeypatch, capsys):
    """A trace path that cannot be opened is exit 1 before any search runs."""
    from partact import gridtowers

    def search(*args, **kwargs):
        raise AssertionError("search_towers ran")

    monkeypatch.setattr(gridtowers, "search_towers", search)
    missing = tmp_path / "missing" / "trace.tsv"
    assert main(["grid", "circle-pair", "--m", "32", "--restarts", "1", "--trace", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and str(missing) in captured.err


def test_cli_check_small(capsys):
    assert main(["check", "--seed", "7", "--count", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 6
    assert all(r["passed"] for r in out)
