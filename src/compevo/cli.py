"""Command-line surface.

Subcommands: sample, stats, match, theory, sweep, render, oracle.
Exit codes: 0 success, 1 usage error, 2 guard exceeded or unsupported
property.  Model parameters are given as key=value tokens, e.g.
``compevo sample --geometric n=100 p=0.5 --count 3``.

Compositions are accepted as comma-separated terms ("1,12,0,3") or, when
every term is a single digit, as a bare digit string ("0212").
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, experiment, oracle, render, theory
from .core import Composition, GuardExceeded, UnsupportedProperty, count_compositions
from .patterns import PatternSyntaxError, match, parse_pattern
from .properties import Property
from .rng import RngStream
from .samplers import sample_geometric, sample_uniform_bars, sample_uniform_chain

DEFAULT_SEED_ENV = "COMPEVO_SEED"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_composition(text: str) -> Composition:
    """Comma-separated terms, or a digit string when all terms are one digit."""
    text = text.strip()
    if not text:
        raise UsageError("empty composition")
    if "," in text:
        parts = text.split(",")
        terms = []
        pos = 0
        for part in parts:
            s = part.strip()
            if not s.isdigit():
                raise UsageError(f"bad term {part!r} at position {pos}")
            terms.append(int(s))
            pos += len(part) + 1
        return Composition(terms)
    if text.isdigit():
        return Composition([int(ch) for ch in text])
    bad = next(i for i, ch in enumerate(text) if not ch.isdigit())
    raise UsageError(f"unexpected character {text[bad]!r} at position {bad}")


def _kv_pairs(tokens: list[str]) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise UsageError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def _num(kv: dict, key: str, cast, required=True, default=None):
    if key not in kv:
        if required:
            raise UsageError(f"missing parameter {key}=")
        return default
    try:
        return cast(kv[key])
    except ValueError:
        raise UsageError(f"bad value for {key}: {kv[key]!r}")


def _default_seed() -> int:
    return int(os.environ.get(DEFAULT_SEED_ENV, "0"))


def _format_composition(c: Composition, fmt: str) -> str:
    terms = [int(t) for t in c.terms]
    if fmt == "csv":
        return ",".join(map(str, terms))
    if fmt == "digits":
        if any(t > 9 for t in terms):
            raise UsageError("digits format needs every term <= 9")
        return "".join(map(str, terms))
    if fmt == "json-array":
        return json.dumps(terms)
    raise UsageError(f"unknown format {fmt!r}")


# -- subcommands -------------------------------------------------------------

def cmd_sample(args, out) -> int:
    kv = _kv_pairs(args.params)
    n = _num(kv, "n", int)
    seed = args.seed if args.seed is not None else _default_seed()
    stream = RngStream(seed, 0)
    for i in range(args.count):
        sub = stream.substream(i)
        if args.uniform or args.chain:
            m = _num(kv, "m", int)
            c = (sample_uniform_chain if args.chain else sample_uniform_bars)(n, m, sub)
        else:
            p = _num(kv, "p", float)
            from .core import GeometricModel
            GeometricModel(n, p)  # validates 0 <= p < 1
            c = sample_geometric(n, p, sub)
        out.write(_format_composition(c, args.format) + "\n")
    return 0


def cmd_stats(args, out) -> int:
    c = parse_composition(args.composition)
    out.write(json.dumps(analysis.stats_report(c), indent=2) + "\n")
    return 0


def cmd_match(args, out) -> int:
    c = parse_composition(args.composition)
    spec = parse_pattern(args.pattern)
    report = match(c, spec, strict=args.strict, with_positions=args.positions)
    doc = {"pattern": str(spec), "kind": spec.kind.value,
           "structure": spec.structure.value,
           "exists": report.exists, "count": report.count,
           "truncated": report.truncated}
    if args.positions and report.positions is not None:
        doc["positions"] = [list(t) for t in report.positions]
    out.write(json.dumps(doc, indent=2) + "\n")
    return 0


def _prediction_doc(pred: theory.TheoryPrediction) -> dict:
    doc = {"value": pred.value, "kind": pred.kind, "exact": pred.exact}
    if pred.regime:
        doc["regime"] = pred.regime
    if pred.details:
        doc["details"] = {k: v for k, v in pred.details.items()}
    if pred.kind == "poisson_mean":
        doc["prob_none"] = pred.prob_none()
        doc["prob_some"] = pred.prob_some()
    return doc


def cmd_theory(args, out) -> int:
    what = args.what
    rest = list(args.params)
    kv = _kv_pairs([t for t in rest if "=" in t])
    words = [t for t in rest if "=" not in t]

    def spec_params():
        d = {}
        for key in ("k", "r", "d"):
            if key in kv:
                d[key] = int(kv[key])
        for key in ("c", "p"):
            if key in kv:
                d[key] = float(kv[key])
        if "spec" in kv:
            d["spec"] = kv["spec"]
        return d

    if what == "poisson":
        if not words:
            raise UsageError("theory poisson needs a statistic id")
        alpha = _num(kv, "alpha", float, required=False, default=1.0)
        pred = theory.poisson_limit(words[0], spec_params(), alpha)
    elif what == "threshold":
        if not words:
            raise UsageError("theory threshold needs a statistic id")
        n = _num(kv, "n", int, required=False, default=10 ** 4)
        pred = theory.threshold_location(words[0], spec_params(), n)
    elif what == "expected-components":
        pred = theory.expected_components(_num(kv, "n", int), _num(kv, "p", float))
    elif what == "expected-gaps":
        pred = theory.expected_gaps(_num(kv, "n", int), _num(kv, "p", float))
    elif what == "mean-component-length":
        pred = theory.mean_component_length(_num(kv, "n", int), _num(kv, "p", float))
    elif what == "mean-gap-length":
        pred = theory.mean_gap_length(_num(kv, "n", int), _num(kv, "p", float))
    elif what == "prob-exact-at-position":
        pred = theory.prob_exact_consecutive_at_position(
            parse_pattern(kv.get("spec", "")), _num(kv, "p", float))
    elif what == "prob-exact-at-position-uniform":
        pred = theory.prob_exact_consecutive_at_position_uniform(
            _num(kv, "n", int), _num(kv, "m", int), parse_pattern(kv.get("spec", "")))
    elif what == "prob-ordering-at-position":
        pred = theory.prob_ordering_at_position(
            parse_pattern(kv.get("spec", "")), _num(kv, "p", float))
    elif what == "prob-tmax-lt":
        pred = theory.prob_tmax_lt(_num(kv, "n", int), _num(kv, "p", float),
                                   _num(kv, "r", int))
    elif what == "prob-tmin-ge":
        pred = theory.prob_tmin_ge(_num(kv, "n", int), _num(kv, "p", float),
                                   _num(kv, "r", int))
    elif what == "square-threshold":
        pred = theory.square_threshold(_num(kv, "n", int),
                                       _num(kv, "c", float, required=False, default=0.0))
    else:
        raise UsageError(f"unknown theory request {what!r}")
    out.write(json.dumps(_prediction_doc(pred), indent=2) + "\n")
    return 0


def cmd_sweep(args, out) -> int:
    with open(args.config) as fh:
        doc = json.load(fh)
    if args.workers is not None:
        doc["workers"] = args.workers
    if args.seed is not None:
        doc["seed"] = args.seed
    config = experiment.ExperimentConfig.from_dict(doc)
    rows = experiment.run_sweep(config)
    text = (experiment.rows_to_csv(rows) if args.format == "csv"
            else experiment.rows_to_json(rows))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def cmd_render(args, out) -> int:
    c = parse_composition(args.composition)
    if args.format == "ascii":
        out.write(render.render_ascii(c))
    else:
        out.write(render.render_svg(c))
    return 0


def cmd_oracle(args, out) -> int:
    kv = _kv_pairs(args.params)
    mode = args.mode
    if mode == "count":
        n, m = _num(kv, "n", int), _num(kv, "m", int)
        out.write(str(count_compositions(n, m)) + "\n")
        return 0
    prop = _oracle_property(args, kv)
    if mode == "uniform":
        n, m = _num(kv, "n", int), _num(kv, "m", int)
        res = oracle.exact_prob_uniform(n, m, prop.holds)
        doc = {"lo": res.lo, "hi": res.hi, "method": res.method,
               "rational": str(res.rational)}
    elif mode == "geometric":
        n, p = _num(kv, "n", int), _num(kv, "p", float)
        form = prop.oracle_form()
        if form is None:
            raise UnsupportedProperty(
                f"statistic {prop.statistic_id!r} has no geometric-model oracle")
        res = oracle.exact_prob_geometric_consecutive(n, p, form)
        doc = {"lo": res.lo, "hi": res.hi, "width": res.width, "method": res.method}
    else:
        raise UsageError(f"unknown oracle mode {mode!r}")
    out.write(json.dumps(doc, indent=2) + "\n")
    return 0


def _oracle_property(args, kv: dict) -> Property:
    if args.pattern:
        spec = parse_pattern(args.pattern)
        return Property("contains", {}, spec=spec)
    if not args.statistic:
        raise UsageError("oracle needs --pattern or --statistic")
    params = {}
    for key in ("k", "r"):
        if key in kv:
            params[key] = int(kv[key])
    if "nonzero" in kv:
        params["nonzero"] = kv["nonzero"].lower() in ("1", "true", "yes")
    return Property(args.statistic, params)


# -- parser ------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="compevo",
                     description="Random weak compositions: sampling, pattern "
                                 "matching, closed forms, sweeps, exact oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw compositions from a model")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--uniform", action="store_true")
    g.add_argument("--geometric", action="store_true")
    g.add_argument("--chain", action="store_true",
                   help="uniform model via the ball-by-ball urn chain")
    p.add_argument("params", nargs="*", help="n=.. and m=.. or p=..")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=["csv", "digits", "json-array"], default="csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("stats", help="statistics of one composition")
    p.add_argument("composition")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("match", help="match a pattern against a composition")
    p.add_argument("composition")
    p.add_argument("pattern")
    p.add_argument("--strict", action="store_true",
                   help="require a gap of at least 1 between vincular blocks")
    p.add_argument("--positions", action="store_true")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("theory", help="evaluate a closed form")
    p.add_argument("what")
    p.add_argument("params", nargs="*")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("sweep", help="run a config-driven Monte Carlo sweep")
    p.add_argument("config")
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("render", help="bar-chart rendering")
    p.add_argument("composition")
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("oracle", help="exact small-scale probabilities")
    p.add_argument("mode", choices=["count", "uniform", "geometric"])
    p.add_argument("params", nargs="*")
    p.add_argument("--pattern", default=None)
    p.add_argument("--statistic", default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            if all("=" in tok and not tok.startswith("-") for tok in extra) \
                    and hasattr(args, "params"):
                args.params = list(args.params) + list(extra)
            else:
                raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args, out)
    except (GuardExceeded, UnsupportedProperty, experiment.ChunkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, PatternSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
