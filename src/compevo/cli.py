"""Command-line surface.

Subcommands: sample, stats, match, theory, sweep, render, oracle.
Exit codes: 0 success, 1 usage error or bad value (one too large for a float
too), 2 guard exceeded or unsupported property.  Model and statistic parameters are given as key=value tokens, e.g.
``compevo sample --geometric n=100 p=0.5 --count 3``.  Each request takes
exactly its own keys, with the types of ``TYPES``: its model's, its
statistic row's, and ``alpha`` or ``n`` for ``theory poisson``/``threshold``.

Compositions are accepted as comma-separated terms ("1,12,0,3") or, when
every term is a single digit, as a bare digit string ("0212").
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


from . import analysis, experiment, oracle, render, theory
from .core import (ChunkError, Composition, GuardExceeded, PatternSpec,
                   UnsupportedProperty, count_compositions)
from .patterns import PatternSyntaxError, match, parse_pattern
from .properties import PARAMS, REQUIRED, Property, lookup
from .rng import RngStream
from .samplers import sample_geometric, sample_uniform_bars


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


# the type of each key: a model's, and each statistic parameter's from properties.PARAMS
TYPES = {"n": int, "m": int, "p": float, "alpha": float,
         **{key: param.type for key, param in PARAMS.items()}}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_CASTS = {bool: lambda text: _BOOLS[text.lower()], PatternSpec: parse_pattern}


def _params(tokens: list[str], keys, required=()) -> dict:
    """The key=value tokens, cast to their keys' types.  A key outside ``keys`` is a
    usage error, and so is a missing key of ``required`` with no statistic default."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise UsageError(f"expected key=value, got {tok!r}")
        key, text = tok.split("=", 1)
        if key not in keys:
            raise UsageError(f"unknown parameter {key!r}; "
                             f"expected one of {', '.join(sorted(keys))}")
        try:
            out[key] = _CASTS.get(TYPES[key], TYPES[key])(text)
        except PatternSyntaxError:
            raise
        except (KeyError, ValueError):
            raise UsageError(f"bad value for {key}: {text!r}") from None
    for key in required:
        if key not in out:
            out[key] = PARAMS[key].default if key in PARAMS else REQUIRED
            if out[key] is REQUIRED:
                raise UsageError(f"missing parameter {key}=")
    return out


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
    if args.count < 0:
        raise UsageError(f"--count must be >= 0, got {args.count}")
    model = ("n", "m") if args.uniform else ("n", "p")
    kv = _params(args.params, model, model)
    draw = sample_uniform_bars if args.uniform else sample_geometric
    stream = RngStream(args.seed, 0)
    for i in range(args.count):
        c = draw(kv["n"], kv[model[1]], stream.substream(i))
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
           "exists": report.exists, "count": report.count}
    if args.positions:
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


# ``theory poisson`` and ``threshold``: the function, its scale key and that key's default
STATISTIC_REQUESTS = {"poisson": (theory.poisson_limit, "alpha", 1.0),
                      "threshold": (theory.threshold_location, "n", 10 ** 4)}
# each closed form of ``compevo theory``: its function and that function's parameter names
CLOSED_FORMS = {
    "expected-components": (theory.expected_components, ("n", "p")),
    "expected-gaps": (theory.expected_gaps, ("n", "p")),
    "mean-component-length": (theory.mean_component_length, ("n", "p")),
    "mean-gap-length": (theory.mean_gap_length, ("n", "p")),
    "prob-exact-at-position": (theory.prob_exact_consecutive_at_position, ("spec", "p")),
    "prob-exact-at-position-uniform": (theory.prob_exact_consecutive_at_position_uniform,
                                       ("n", "m", "spec")),
    "prob-ordering-at-position": (theory.prob_ordering_at_position, ("spec", "p")),
    "prob-tmax-lt": (theory.prob_tmax_lt, ("n", "p", "r")),
    "prob-tmin-ge": (theory.prob_tmin_ge, ("n", "p", "r")),
    "square-threshold": (theory.square_threshold, ("n", "c")),
}


def cmd_theory(args, out) -> int:
    what, tokens = args.what, list(args.params)
    if what in STATISTIC_REQUESTS:
        form, scale, default = STATISTIC_REQUESTS[what]
        sid = next((tok for tok in tokens if "=" not in tok), None)
        if sid is None:
            raise UsageError(f"theory {what} needs a statistic id")
        tokens.remove(sid)
        kv = _params(tokens, {scale, *lookup(sid).keys})
        at = kv.pop(scale, default)
        pred = form(sid, kv, at)
    elif what in CLOSED_FORMS:
        form, keys = CLOSED_FORMS[what]
        pred = form(**_params(tokens, keys, keys))
    else:
        raise UsageError(f"unknown theory request {what!r}")
    out.write(json.dumps(_prediction_doc(pred), indent=2) + "\n")
    return 0


def cmd_sweep(args, out) -> int:
    """One sweep per config, all in this process, so that a worker pool is
    started once and kept for every sweep of the same worker count."""
    if len(args.config) > 1 and args.output_dir is None:
        raise UsageError("several configs need --output-dir")
    names = [Path(path).stem + "." + args.format for path in args.config]
    if len(set(names)) < len(names):
        raise UsageError("two configs would write the same file: their names must differ")
    configs = []  # every config is checked before any sweep runs
    for path in args.config:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config {path}: {exc.strerror}") from None
        if isinstance(doc, dict):  # from_dict names what is wrong with anything else
            if args.workers is not None:
                doc["workers"] = args.workers
            if args.seed is not None:
                doc["seed"] = args.seed
        configs.append(experiment.ExperimentConfig.from_dict(doc))
    if args.output_dir is not None:
        Path(args.output_dir).mkdir(parents=True, exist_ok=True)
    for name, config in zip(names, configs):
        rows = experiment.run_sweep(config)
        text = (experiment.rows_to_csv(rows) if args.format == "csv"
                else experiment.rows_to_json(rows))
        target = (Path(args.output_dir) / name if args.output_dir is not None
                  else args.output)
        if target:
            with open(target, "w") as fh:
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
    model = ("n", "p") if args.mode == "geometric" else ("n", "m")
    if args.mode == "count":
        out.write(f"{count_compositions(**_params(args.params, model, model))}\n")
        return 0
    sid = "contains" if args.pattern else args.statistic
    if sid is None:
        raise UsageError("oracle needs --pattern or --statistic")
    tokens = [*args.params, *([f"spec={args.pattern}"] if args.pattern else [])]
    kv = _params(tokens, {*model, *lookup(sid).keys}, model)
    n, x = kv.pop("n"), kv.pop(model[1])
    if args.mode == "uniform":
        res = oracle.exact_prob_uniform(n, x, Property(sid, kv).holds)
        doc = {"lo": res.lo, "hi": res.hi, "method": res.method,
               "rational": str(res.rational)}
    else:
        res = oracle.exact_prob_geometric_consecutive(n, x, (sid, kv))
        doc = {"lo": res.lo, "hi": res.hi, "width": res.width, "method": res.method}
    out.write(json.dumps(doc, indent=2) + "\n")
    return 0


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
    p.add_argument("params", nargs="*", help="n=.. and m=.. or p=..")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
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

    p = sub.add_parser("sweep", help="run config-driven Monte Carlo sweeps")
    p.add_argument("config", nargs="+")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--output", default=None, help="the file of one config's rows")
    g.add_argument("--output-dir", default=None,
                   help="write each config's rows to DIR/<config name>.csv (or .json)")
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
    except (GuardExceeded, UnsupportedProperty, ChunkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, PatternSyntaxError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
