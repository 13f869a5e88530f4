"""Command-line interface: instance I/O, analysis reports, grid runs, checks.

Instances are JSON documents with four fields::

    {
      "group":   {"family": "cyclic", "n": 2}   or  {"table": [[0,1],[1,0]]},
      "carrier": ["p", "q", "r"],
      "domains": {"0": ["p","q","r"], "1": ["p","q"]},
      "maps":    {"0": [["p","p"],["q","q"],["r","r"]], "1": [["p","q"],["q","p"]]}
    }

Carrier entries are arbitrary labels (strings or numbers); ``domains`` and
``maps`` are keyed by group element index.  Reports are JSON on stdout with
rationals rendered as "p/q" strings and the infinite dimension as the string
"infinity"; diagnostics go to stderr.  Exit codes: 0 success, 1 domain
error, 2 usage error, 3 internal error (the instance read, if any, is dumped
to stderr as one line of instance JSON with its labels, which ``partact
analyze`` reads back).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .decomp import orbit_type_decomposition, stratification
from .fdcstar import (
    crossed_product,
    crossed_product_blocks,
    fixed_point_algebra,
    imprimitivity_bimodule_verify,
    morita_equivalent,
)
from .groups import FiniteGroup, GroupError, build_group
from .pactions import (
    PartialAction,
    PartialActionError,
    central_splitting,
    freeness_witness,
    globalize,
    translation_groupoid,
    validate,
)
from .rokhlin import NonexistenceProof, TowerCertificate, rokhlin_dimension, towers_exist

SCHEMA_VERSION = 3
# Largest grid size `partact grid` takes, checked before any model is built.
# At the cap, one default circle-pair search (d = 0, 100 restarts) takes
# 21-27 s at 121 MB peak RSS on a 2-core machine, under a 3 GB RLIMIT_AS.
MAX_GRID_M = 8192
# Largest tower dimension `partact grid` and `partact towers` take, checked
# before any model is built or instance read.  At the grid cap a search of 16
# restarts at d = 8 takes 55 s at 434 MB peak RSS (about 35 MB a level);
# d = 200 ran out of a 3 GB RLIMIT_AS.  The exact answer of `towers` is the
# same at every d, so a larger d would only print more empty levels.  The
# paper needs d <= 1.
MAX_D = 8


class ParseError(ValueError):
    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{message}{f' (at {location})' if location else ''}")


class ValidationError(ValueError):
    def __init__(self, cause: PartialActionError):
        self.cause = cause
        super().__init__(f"instance does not validate: {cause}")


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _group_from_payload(payload, location: str) -> FiniteGroup:
    if not isinstance(payload, dict):
        raise ParseError("group must be an object", location)
    if "table" in payload:
        table = payload["table"]
        if not isinstance(table, list) or not all(
            isinstance(row, list) and all(map(_is_index, row)) for row in table
        ):
            raise ParseError("table must be a list of rows of element indices", f"{location}.table")
        return build_group(table)
    if "family" in payload:
        family = payload["family"]
        if family == "klein4":
            return build_group("klein4")
        if not isinstance(family, str):
            raise ParseError(f"family must be a name, got {family!r}", f"{location}.family")
        if "n" not in payload:
            raise ParseError(f"family {family!r} needs a parameter n", location)
        n = payload["n"]
        if not _is_index(n):
            raise ParseError(f"parameter n must be an integer, got {n!r}", f"{location}.n")
        return build_group((family, n))
    raise ParseError("group needs either 'family' or 'table'", location)


def parse_instance(text: str) -> PartialAction:
    """Parse and validate an instance document; labels map to dense indices."""
    pa, _ = parse_instance_with_labels(text)
    return pa


def parse_instance_with_labels(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"not valid JSON: {err.msg}", f"line {err.lineno}, column {err.colno}")
    except RecursionError:
        raise ParseError("JSON is nested too deeply", "document")
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    for key in ("group", "carrier", "domains", "maps"):
        if key not in doc:
            raise ParseError(f"missing field {key!r}")
    try:
        group = _group_from_payload(doc["group"], "group")
    except GroupError as err:
        raise ParseError(str(err), "group")
    shapes = (("carrier", list, "array"), ("domains", dict, "object"), ("maps", dict, "object"))
    for key, kind, name in shapes:
        if not isinstance(doc[key], kind):
            raise ParseError(f"{key} must be a JSON {name}", key)
    labels = doc["carrier"]
    if len(set(map(str, labels))) != len(labels):
        raise ParseError("carrier labels are not distinct", "carrier")
    index = {str(lbl): i for i, lbl in enumerate(labels)}

    def point(lbl, location) -> int:
        key = str(lbl)
        if key not in index:
            raise ParseError(f"label {lbl!r} is not in the carrier", location)
        return index[key]

    domains = {}
    for g_str, lst in doc["domains"].items():
        g = _element(group, g_str, "domains")
        if not isinstance(lst, list):
            raise ParseError("a domain must be a list of labels", f"domains.{g_str}")
        domain = {point(lbl, f"domains.{g_str}") for lbl in lst}
        if len(domain) != len(lst):
            raise ParseError("a domain lists a label twice", f"domains.{g_str}")
        domains[g] = domain
    maps = {}
    for g_str, pairs in doc["maps"].items():
        g = _element(group, g_str, "maps")
        if not isinstance(pairs, list):
            raise ParseError("a map must be a list of [source, target] pairs", f"maps.{g_str}")
        mapping = {}
        for entry in pairs:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ParseError("map entries must be [source, target] pairs", f"maps.{g_str}")
            src, tgt = entry
            x = point(src, f"maps.{g_str}")
            if x in mapping:
                raise ParseError(f"source label {src!r} is listed twice", f"maps.{g_str}")
            mapping[x] = point(tgt, f"maps.{g_str}")
        maps[g] = mapping
    try:
        pa = validate(group, range(len(labels)), domains, maps)
    except PartialActionError as err:
        raise ValidationError(err)
    return pa, labels


def _element(group: FiniteGroup, key: str, location: str) -> int:
    # Only the canonical spelling: int() also reads " 1" and "+1", and a second
    # spelling of one element would silently replace its domain or map.
    try:
        g = int(key)
    except ValueError:
        g = None
    if g is None or str(g) != key:
        raise ParseError(f"group element key {key!r} is not an index", location)
    if not (0 <= g < group.order):
        raise ParseError(f"group element {g} out of range", location)
    return g


def serialize_instance(pa: PartialAction, labels: Optional[Sequence] = None) -> str:
    """Canonical JSON serialization; parse . serialize is the identity.

    Read off the table, ``labels[i]`` naming ``pa.points[i]``: each domain
    lists its labels in point order, each map its pairs by ``str`` of the
    source label (point order among equal strings).
    """
    labels = pa.points.tolist() if labels is None else list(labels)
    rows = pa.table.tolist()
    by_str = sorted(range(len(labels)), key=lambda i: str(labels[i]))
    inv = pa.group.inverse
    doc = {
        "group": {"table": [list(row) for row in pa.group.table]},
        "carrier": labels,
        "domains": {  # X_g is where theta_(g^-1) is defined
            str(g): [labels[i] for i, y in enumerate(rows[inv[g]]) if y >= 0]
            for g in pa.group.elements()
        },
        "maps": {
            str(g): [[labels[i], labels[row[i]]] for i in by_str if row[i] >= 0]
            for g, row in enumerate(rows)
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def instance_digest(pa: PartialAction) -> str:
    return hashlib.sha256(serialize_instance(pa).encode()).hexdigest()


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _dim_json(value):
    return "infinity" if value == math.inf else int(value)


def _certificate_payload(cert: TowerCertificate) -> dict:
    return {
        "d": cert.d,
        "levels": [
            {str(x): _frac_str(v) for x, v in sorted(level.items())}
            for level in cert.levels
        ],
    }


def _nonexistence_payload(proof: NonexistenceProof) -> dict:
    return {"orbit": list(proof.orbit), "parallelArrows": [list(t) for t in proof.parallel]}


def analyze(pa: PartialAction, seed: int = 0) -> dict:
    """The full report: every analysis section.  Every step is exact and
    uses no randomness; ``seed`` is only echoed as ``seeds.blockStructure``."""
    gr = translation_groupoid(pa)
    strata = stratification(pa)
    witness = freeness_witness(pa)
    report: dict = {
        "schemaVersion": SCHEMA_VERSION,
        "toolVersion": __version__,
        "instanceDigest": instance_digest(pa),
        "seeds": {"blockStructure": seed},
        "group": {"name": pa.group.name, "order": pa.group.order},
        "carrierSize": pa.size(),
        "freeness": {
            "free": witness is None,
            "witness": None if witness is None else list(witness),
        },
        "orbits": {
            "count": len(gr.orbits),
            "sizes": sorted(len(o) for o in gr.orbits),
            "stabilizerOrders": sorted(s.order for s in gr.stabilizers.values()),
        },
        "strata": {str(k): len(strata.stratum(k)) for k in range(1, pa.group.order + 1)},
        "decomposability": {"n": strata.decomposable_n},
    }
    rok = rokhlin_dimension(pa)
    report["rokhlin"] = {
        "dimension": _dim_json(rok.dimension),
        "certificate": _certificate_payload(rok.certificate) if rok.certificate else None,
    }
    cp = crossed_product(pa)
    blocks = crossed_product_blocks(pa, crossed=cp)
    fp = fixed_point_algebra(pa)
    bimodule = imprimitivity_bimodule_verify(pa, crossed=cp)
    report["crossedProduct"] = {
        "dimension": cp.dimension,
        "blocks": list(blocks.blocks),
        "blocksCombinatorial": list(blocks.blocks),  # equal, or crossed_product_blocks raised
    }
    report["fixedPoint"] = {"blocks": list(fp.blocks)}
    report["morita"] = {
        "equivalent": morita_equivalent(fp, blocks),
        "hypothesisFinite": rok.finite,
        "bimodule": {
            **{k: v for k, v in bimodule.clauses.items()},
            "spanDimension": bimodule.span_dimension,
            "algebraDimension": bimodule.algebra_dimension,
        },
    }
    glob = globalize(pa)
    split = central_splitting(glob)
    report["globalization"] = {
        "envelopeSize": glob.envelope.size(),
        "splittingSizes": {str(g): len(split[g]) for g in pa.group.elements()},
    }
    return report


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _read_instance(args) -> PartialAction:
    with open(args.instance, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"not UTF-8 text: {err.reason}", f"byte {err.start}")
    args.pa, args.labels = parse_instance_with_labels(text)  # main dumps them on an internal error
    return args.pa


def _cmd_validate(args) -> int:
    pa = _read_instance(args)
    _emit({"valid": True, "instanceDigest": instance_digest(pa), "carrierSize": pa.size()})
    return 0


def _cmd_analyze(args) -> int:
    pa = _read_instance(args)
    _emit(analyze(pa, seed=args.seed))
    return 0


def _cmd_towers(args) -> int:
    _check_d(args)
    pa = _read_instance(args)
    outcome = towers_exist(pa, args.d)
    if isinstance(outcome, TowerCertificate):
        _emit({"exists": True, "certificate": _certificate_payload(outcome)})
    else:
        _emit({"exists": False, "nonexistence": _nonexistence_payload(outcome)})
    return 0


def _cmd_globalize(args) -> int:
    pa = _read_instance(args)
    result = globalize(pa)
    split = central_splitting(result)
    _emit(
        {
            "instanceDigest": instance_digest(pa),
            "envelopeSize": result.envelope.size(),
            "embedding": {str(x): y for x, y in sorted(result.embedding.items())},
            "splitting": {str(g): sorted(split[g]) for g in pa.group.elements()},
        }
    )
    return 0


def _cmd_decompose(args) -> int:
    pa = _read_instance(args)
    strata = stratification(pa)
    payload = {
        "instanceDigest": instance_digest(pa),
        "strata": {str(k): sorted(strata.stratum(k)) for k in range(1, pa.group.order + 1)},
        "parts": None,
    }
    n = strata.decomposable_n
    if n is not None:
        parts = orbit_type_decomposition(pa, n)
        payload["parts"] = [
            {
                "representativeTuple": sorted(p.representative),
                "points": sorted(p.part),
                "stabilizerOrder": p.stabilizer.order,
                "subsystemCarrier": sorted(p.carrier_X_tau),
            }
            for p in parts
        ]
        payload["decomposableN"] = n
    _emit(payload)
    return 0


def _check_d(args) -> None:
    if args.d > MAX_D:
        args.usage_error(f"argument --d: must be at most {MAX_D}, got {args.d}")


def _cmd_grid(args) -> int:
    import numpy as np

    from . import gridtowers as gt

    if args.m > MAX_GRID_M:
        args.usage_error(f"argument --m: must be at most {MAX_GRID_M}, got {args.m}")
    _check_d(args)
    try:
        if args.model == "interval":
            model = gt.interval_half_shift(args.delta, args.m)
        elif args.model == "circle-pair-global":
            model = gt.punctured_circle_pair_global(args.m)
        else:
            model = gt.punctured_circle_pair(args.m, lipschitz=args.lipschitz)
    except gt.GridError as err:  # a grid or delta the model cannot take
        args.usage_error(str(err))
    if args.model == "interval":
        ga, towers, family = model
        res = gt.residual(ga, towers, family)
        bound = gt.witness_bound(ga, family, args.delta)
        payload = {
            "model": "interval",
            "m": args.m,
            "delta": _frac_str(args.delta),
            "displayedTowersResidual": _frac_str(res),
            "impliedBound": _frac_str(bound),
            "residualWithinBound": res <= bound,
        }
    elif args.model == "circle-pair-global":
        ga, towers = model
        family = gt.WitnessFamily(np.ones((1, len(ga.pa.points)), dtype=np.int64), 1)
        payload = {
            "model": "circle-pair-global",
            "m": args.m,
            "projectionResidual": _frac_str(gt.residual(ga, towers, family)),
        }
    else:
        ga, family, _ = model
        trace: list = []
        # Open the trace file first: a path that cannot be written fails before the search.
        with open(args.trace, "w", encoding="utf-8") if args.trace else contextlib.nullcontext() as fh:
            towers, best = gt.search_towers(
                ga, family, args.eps, args.d, lipschitz=args.lipschitz, seed=args.seed, restarts=args.restarts, trace=trace
            )
            if fh is not None:
                fh.write("restart\tresidual\tbest\tsweeps\n")
                for restart, res_f, best_f, ran in trace:
                    fh.write(f"{restart}\t{res_f:.9g}\t{best_f:.9g}\t{ran}\n")
        payload = {
            "model": "circle-pair",
            "m": args.m,
            "d": args.d,
            "lipschitz": args.lipschitz,
            "restarts": args.restarts,
            "seed": args.seed,
            "bestResidual": _frac_str(best),
            "bestResidualFloat": float(best),
        }
        if args.trace:
            payload["traceFile"] = args.trace
    _emit(payload)
    return 0


def _cmd_check(args) -> int:
    from .harness import run_all_checks

    reports = run_all_checks(args.seed, count=args.count)
    _emit([r.to_payload() for r in reports])
    return 0 if all(r.passed for r in reports) else 1


def _at_least(low: int):
    def parse(text: str) -> int:
        if not (text.isascii() and text.isdigit() and int(text) >= low):
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return int(text)

    return parse


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partact",
        description="Partial actions of finite groups on finite sets: analysis and certificates.",
    )
    parser.add_argument("--version", action="version", version=f"partact {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="Parse and validate an instance file.")
    p.add_argument("instance")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("analyze", help="Full analysis report for an instance.")
    p.add_argument("instance")
    p.add_argument("--seed", type=int, default=0, help="echoed as seeds.blockStructure; analyze uses no randomness")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("towers", help="Exact tower search at a fixed dimension.")
    p.add_argument("instance")
    p.add_argument("--d", type=_at_least(0), required=True, help=f"tower dimension, at most {MAX_D}")
    p.set_defaults(fn=_cmd_towers, usage_error=p.error)

    p = sub.add_parser("globalize", help="Enveloping action and central splitting.")
    p.add_argument("instance")
    p.set_defaults(fn=_cmd_globalize)

    p = sub.add_parser("decompose", help="Strata and orbit-type decomposition.")
    p.add_argument("instance")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("grid", help="Grid-discretized tower models and search.")
    p.add_argument("model", choices=["interval", "circle-pair", "circle-pair-global"])
    p.add_argument("--m", type=int, default=128, help=f"grid size, at most {MAX_GRID_M}")
    p.add_argument("--delta", type=_rational, default=Fraction(1, 8), help="for the interval model, e.g. 1/8")
    p.add_argument("--d", type=_at_least(0), default=0, help=f"tower dimension, at most {MAX_D}")
    p.add_argument("--lipschitz", type=_at_least(0), default=8)
    p.add_argument("--eps", type=_rational, default=Fraction(0), help="early-stop residual target, e.g. 1/1000")
    p.add_argument("--restarts", type=_at_least(1), default=100)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--trace", type=str, default=None, help="write a tab-separated residual trace")
    p.set_defaults(fn=_cmd_grid, usage_error=p.error)

    p = sub.add_parser("check", help="Run the six theorem-check suites.")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_at_least(1), default=100)
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValidationError, PartialActionError, GroupError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (AssertionError, MemoryError) as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        if hasattr(args, "pa"):
            print(serialize_instance(args.pa, args.labels), file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
