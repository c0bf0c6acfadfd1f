"""Command-line front end for enumeration, experiments, probes, and classification.

Examples
--------
  illposed enumerate --support 2 --entry 1
  illposed verify-theorem --depth 200 --alpha 0.3
  illposed collapse --y random3 --alpha 0.1 --depths 50,200,800,3200
  illposed probe --operator B --eta zeta:1 --n 2000
  illposed classify --catalog
  illposed convergence --operator diag --n 50 --x-true e:1
  illposed growth --operator diag --sizes 8,64,512

Every command writes a CSV report (JSON via --format json; probe's JSON is
its label, sup_tail and verdict only, without the pairings), byte-identical
across reruns with the same configuration; classify --flags writes one
verdict,hybrid,violations row, its rationale in a "# rationale=" line (in
"meta" for JSON).  Exit codes: 0 success, 2 invalid input (an array too
large to allocate included), 3 flagged numerical rows.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .classify import build_operator, catalog, check_consistency, classify
from .directions import (
    EnumerationParams,
    directions_to_csv,
    directions_to_json,
    enumerate_directions,
)
from .operators import OperatorAttributes
from .probes import pseudoinverse_growth, weak_star_probe
from .reports import csv_report, fmt, json_report
from .tikhonov import (
    TikhonovProblem,
    closed_form_minimizer,
    collapse_experiment,
    convergence_experiment,
    minimizer_family_distance,
    objective,
    optimality_residual,
    soft_threshold,
    solve,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FLAGGED = 3

DEFAULT_SEED = 42

_NAMES = ", ".join(entry.label for entry in catalog())


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def emit(
    args, rows: list[dict], meta: dict | None = None, comments: tuple[str, ...] = ()
) -> None:
    """Write a report table to ``args.out`` in ``args.format``.

    Each row maps column name to value, and the first row's keys are the
    header.  JSON carries all of ``meta``; CSV writes only the ``comments``
    keys of ``meta``, as ``# key=value`` lines above the header.
    """
    header, values = list(rows[0]), [list(row.values()) for row in rows]
    if args.format == "json":
        _write(json_report(header, values, meta), args.out)
    else:
        lines = [f"{key}={fmt(meta[key])}" for key in comments]
        _write(csv_report(header, values, lines), args.out)


def _number(text: str, kind: type, option: str):
    """``text`` as ``kind`` (int or float), or a ValueError that names ``option``."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{option} entry {text!r} is not {noun}") from None


def _int_list(text: str, option: str) -> list[int]:
    return [_number(part, int, option) for part in text.split(",") if part]


def _float_list(text: str, option: str) -> list[float]:
    return [_number(part, float, option) for part in text.split(",") if part]


def _seed(args) -> int:
    if args.seed < 0:
        raise ValueError("--seed must be a non-negative integer")
    return args.seed


def _positive(value: float, option: str) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{option} must be a positive finite number")
    return value


def _nonempty(values: list, option: str) -> list:
    if not values:
        raise ValueError(f"{option} lists no values")
    return values


def _directions(args):
    """The enumeration named by the command's bounds, computed on first call.

    ``growth`` takes no bounds and uses the default enumeration.
    """
    default = EnumerationParams()
    params = EnumerationParams(
        max_support=getattr(args, "support", default.max_support),
        max_entry=getattr(args, "entry", default.max_entry),
    )
    return functools.cache(lambda: enumerate_directions(params))


def _sized(directions, n: int, option: str):
    """``directions``, checked on first use to hold ``n``: only direction-based names call it."""
    def checked():
        dirs = directions()
        if n > len(dirs):
            raise ValueError(f"{option} must lie in 1..{len(dirs)}")
        return dirs

    return checked


def _parse_vector(spec: str, dim: int, directions, seed: int, option: str) -> np.ndarray:
    """Vector specs: 'random3', 'zeta:K', 'e:K', 'ones', or comma floats.

    With ``dim`` 0 (collapse ``--y``), 'zeta:K' is as long as its direction's
    support, and 'e:K' and 'ones' are as wide as the enumeration; all three
    are then enumerated directions, which collapse rejects, so its ``--y``
    needs 'randomK' or a comma list.  'randomK', comma vectors and 'zeta:K'
    must fit ``dim``.  A malformed number is reported against ``option``.
    """
    if spec.startswith("zeta:"):
        k = _number(spec.partition(":")[2], int, option)
        if not 1 <= k <= len(directions()):
            raise ValueError(f"direction index {k} out of range")
        support = int(directions().support[k - 1])
        dim = dim or support
        if support > dim:
            raise ValueError(f"direction {k} does not fit in dimension {dim}")
        out = np.zeros(dim)
        out[:support] = directions().realized[k - 1, :support]
        return out
    if spec.startswith("e:"):
        k = _number(spec.partition(":")[2], int, option)
        dim = dim or directions().canon.shape[1]
        if not 1 <= k <= dim:
            raise ValueError(f"basis index {k} out of range for dim {dim}")
        out = np.zeros(dim)
        out[k - 1] = 1.0
        return out
    if spec == "ones":
        return np.ones(dim or directions().canon.shape[1])
    if spec.startswith("random"):
        size = _number(spec[len("random"):], int, option)
        if size < 0:
            raise ValueError(f"{option} randomK needs K >= 0")
        values = np.random.default_rng(seed).standard_normal(size)
        values /= np.linalg.norm(values)
    else:
        values = np.array(_float_list(spec, option))
    if dim and len(values) > dim:
        raise ValueError(f"vector longer than dimension {dim}")
    out = np.zeros(dim if dim else len(values))
    out[: len(values)] = values
    return out


def cmd_enumerate(args) -> int:
    directions = _directions(args)()
    if args.format == "json":
        _write(directions_to_json(directions) + "\n", args.out)
    else:
        _write(directions_to_csv(directions), args.out)
    return EXIT_OK


def _theorem_case(directions, op, k, lam, alpha, tol, gammas):
    prefix = directions[: op.n_cols]
    problem = TikhonovProblem(op, lam * directions.realized[k - 1, : op.n_rows], alpha)
    cert = solve(problem, tol=tol)
    deviation = minimizer_family_distance(cert.x, prefix, k, lam, alpha)
    gamma_spread = gamma_max_residual = 0.0
    base = soft_threshold(lam, alpha)
    if base and gammas and prefix.antipodes[k - 1]:
        lo, hi = sorted((0.0, -base))
        gamma = lambda i: lo + (hi - lo) * i / (gammas + 1)
        if not (lo < gamma(1) and gamma(gammas) < hi):  # the samples are monotone in i
            raise ValueError(f"--gammas {gammas} has no room inside ({lo}, {hi})")
        values, residuals = [], []
        for i in range(1, gammas + 1):
            x = closed_form_minimizer(prefix, k, lam, alpha, gamma(i))
            values.append(objective(problem, x))
            residuals.append(optimality_residual(problem, x))
        gamma_spread, gamma_max_residual = max(values) - min(values), max(residuals)
    return {
        "k": k, "lambda": lam, "alpha": alpha, "deviation_l1": deviation,
        "residual": cert.residual, "gamma_spread": gamma_spread,
        "gamma_max_residual": gamma_max_residual, "support_size": len(cert.support),
        "converged": cert.converged,
    }


def cmd_verify_theorem(args) -> int:
    _positive(args.tol_residual, "--tol-residual")
    # a negative --tol-match is allowed: it flags every row on purpose
    if not math.isfinite(args.tol_match):
        raise ValueError("--tol-match must be a finite number")
    if args.gammas < 0:
        raise ValueError("--gammas must be >= 0")
    directions = _directions(args)()
    if not 1 <= args.depth <= len(directions):
        raise ValueError(f"--depth must lie in 1..{len(directions)}")
    op = build_operator("B", args.depth, lambda: directions)
    indices = _nonempty(_int_list(args.indices, "--indices"), "--indices")
    if any(not 1 <= k <= args.depth for k in indices):
        raise ValueError(f"grid indices must lie in 1..{args.depth}")
    multipliers = _nonempty(_float_list(args.multipliers, "--multipliers"), "--multipliers")
    if not all(math.isfinite(m * args.alpha) for m in [1.0, *multipliers]):
        raise ValueError("--alpha and --alpha times each of --multipliers must be finite")
    rows = [
        _theorem_case(
            directions, op, k, m * args.alpha, args.alpha, args.tol_residual,
            args.gammas,
        )
        for k in indices
        for m in multipliers
    ]
    meta = {"depth": args.depth, "max_deviation": max(r["deviation_l1"] for r in rows)}
    emit(args, rows, meta, ("max_deviation",))
    if any(not r["converged"] or r["deviation_l1"] > args.tol_match for r in rows):
        return EXIT_FLAGGED
    return EXIT_OK


def cmd_collapse(args) -> int:
    _positive(args.tol, "--tol")
    directions = _directions(args)
    depths = _nonempty(_int_list(args.depths, "--depths"), "--depths")
    if min(depths) < 1:
        raise ValueError("--depths must be at least 1")
    y = _parse_vector(args.y, 0, directions, _seed(args), "--y")
    probes = tuple(_int_list(args.probes, "--probes"))
    for i, j in enumerate(probes):
        if j in probes[:i]:
            raise ValueError(f"--probes lists {j} more than once")
    rows = collapse_experiment(
        directions(), y, args.alpha, depths, probe_indices=probes, tol=args.tol
    )
    meta = {"seed": args.seed, "alpha": args.alpha, "y": args.y}
    emit(args, rows, meta, ("seed", "y"))
    return EXIT_FLAGGED if any(not r["converged"] for r in rows) else EXIT_OK


def cmd_probe(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    _positive(args.threshold, "--threshold")
    seed = _seed(args)
    directions = _directions(args)
    op = build_operator(args.operator, args.n, _sized(directions, args.n, "--n"))
    eta = _parse_vector(args.eta, op.n_rows, directions, seed, "--eta")
    report = weak_star_probe(op, eta, args.n, threshold=args.threshold)
    if args.format == "json":
        _write(report.summary_json() + "\n", args.out)
    else:
        _write(report.to_csv(), args.out)
    return EXIT_OK


def _parse_flags(spec: str) -> OperatorAttributes:
    mapping = {"true": True, "false": False, "unknown": None}
    known = set(OperatorAttributes.__dataclass_fields__)
    values = {}
    for part in spec.split(","):
        if not part:
            continue
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"--flags names unknown attribute {key!r}")
        if raw not in mapping:
            raise ValueError(f"--flags value {raw!r} must be true, false, or unknown")
        values[key] = mapping[raw]
    if not values:
        raise ValueError("--flags names no attribute")
    return OperatorAttributes(**values)


def cmd_classify(args) -> int:
    if args.catalog and args.flags is not None:
        raise ValueError("--catalog and --flags are mutually exclusive")
    if args.flags is not None:
        attrs = _parse_flags(args.flags)
        result = classify(attrs)
        rules = ";".join(v.rule for v in check_consistency(attrs))
        meta = {"rationale": "; ".join(result.rationale)}
        row = {"verdict": result.verdict.value, "hybrid": result.hybrid, "violations": rules}
        emit(args, [row], meta, ("rationale",))
        return EXIT_OK
    rows = []
    clean = True
    for entry in catalog():
        result = classify(entry.attributes)
        violations = check_consistency(entry.attributes)
        match = (
            result.verdict is entry.expected_verdict
            and result.hybrid == entry.expected_hybrid
        )
        clean = clean and match and not violations
        rows.append(
            {
                "label": entry.label,
                "verdict": result.verdict.value,
                "hybrid": result.hybrid,
                "expected_verdict": entry.expected_verdict.value,
                "match": match,
                "violations": ";".join(v.rule for v in violations),
            }
        )
    emit(args, rows)
    return EXIT_OK if clean else EXIT_FLAGGED


def cmd_convergence(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    _positive(args.tol, "--tol")
    deltas = _nonempty(_float_list(args.deltas, "--deltas"), "--deltas")
    # convergence_experiment checks deltas and --alpha-factor too; this check
    # stays so that a bad --deltas entry gets a message naming the option
    if not all(math.isfinite(d) and d > 0.0 for d in deltas):
        raise ValueError("--deltas must be positive finite numbers")
    seed = _seed(args)
    directions = _directions(args)
    # the Tikhonov problem needs an l^1 domain, so diag is built on l^1 here
    op = build_operator(
        args.operator, args.n, _sized(directions, args.n, "--n"), domain_exponent=1.0
    )
    x_true = _parse_vector(args.x_true, op.n_cols, directions, seed, "--x-true")
    rows = convergence_experiment(
        op, x_true, deltas, alpha_factor=args.alpha_factor, seed=seed, tol=args.tol
    )
    # weak*-to-weak continuity is the hypothesis under which the errors must
    # decay to zero; runs without it are still made, to exhibit the failure mode
    guaranteed = op.attributes.weakstar_to_weak_continuous is True
    emit(args, rows, {"guaranteed": guaranteed, "seed": args.seed}, ("guaranteed", "seed"))
    return EXIT_FLAGGED if any(not r["converged"] for r in rows) else EXIT_OK


def cmd_growth(args) -> int:
    sizes = _nonempty(_int_list(args.sizes, "--sizes"), "--sizes")
    if min(sizes) < 1:
        raise ValueError("--sizes must be at least 1")
    directions = _directions(args)
    family = [build_operator(args.operator, n, _sized(directions, n, "--sizes")) for n in sizes]
    rows = [
        {"n": n, "min_singular_value": smin, "growth": growth}
        for n, smin, growth in pseudoinverse_growth(family)
    ]
    emit(args, rows)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--config", default=None, help="JSON config file; flags win")
    parser.set_defaults(parser=parser)


def _add_enum_bounds(parser: argparse.ArgumentParser) -> None:
    default = EnumerationParams()
    parser.add_argument(
        "--support", type=int, default=default.max_support, help="max support bound"
    )
    parser.add_argument("--entry", type=int, default=default.max_entry, help="max entry bound")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="illposed", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list unit-sphere directions")
    _add_enum_bounds(p)
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify-theorem", help="solver vs closed form over a grid")
    p.add_argument("--depth", type=int, default=200)
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--indices", default="1,5,17,60,150")
    p.add_argument("--multipliers", default="-10,-2,-0.5,0.5,2,10")
    p.add_argument("--gammas", type=int, default=5)
    p.add_argument("--tol-match", dest="tol_match", type=float, default=1e-8)
    p.add_argument("--tol-residual", dest="tol_residual", type=float, default=1e-12)
    _add_enum_bounds(p)
    _add_common(p)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("collapse", help="minimizer drift across enumeration depths")
    p.add_argument("--y", default="random3")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--depths", default="50,200,800,3200")
    p.add_argument("--probes", default="1,2,3")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of random draws")
    _add_enum_bounds(p)
    _add_common(p)
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("probe", help="weak*-null basis pairings")
    p.add_argument("--operator", default="B", help=f"operator name: {_NAMES}")
    p.add_argument("--eta", default="zeta:1")
    p.add_argument("--n", type=int, default=2000, help="operator size and pairing count")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of random draws")
    _add_enum_bounds(p)
    _add_common(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("classify", help="posedness verdicts")
    p.add_argument("--catalog", action="store_true")
    p.add_argument("--flags", default=None, help="comma list name=true|false|unknown")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("convergence", help="noise-to-zero error table")
    p.add_argument(
        "--operator",
        default="diag",
        help=f"operator name: {_NAMES}; the problem needs l^1 -> l^2 (B, diag, inj, CoB)",
    )
    p.add_argument("--n", type=int, default=50, help="operator size")
    p.add_argument("--x-true", dest="x_true", default="e:1")
    p.add_argument("--deltas", default="1e-1,1e-2,1e-3,1e-4,1e-5")
    p.add_argument("--alpha-factor", dest="alpha_factor", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of random draws")
    _add_enum_bounds(p)
    _add_common(p)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("growth", help="inverse growth across truncation sizes")
    p.add_argument("--operator", default="diag", help=f"operator name: {_NAMES}")
    p.add_argument("--sizes", default="8,64,512", help="operator sizes")
    _add_common(p)
    p.set_defaults(func=cmd_growth)

    return parser


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> dict:
    """Option defaults from a JSON config file, checked against ``parser``.

    Keys are option destinations (``tol_match`` for ``--tol-match``), and a
    value must have its option's JSON type: true or false for a switch, an
    integer or a number for a numeric option, a string otherwise.
    """
    with open(path, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    for key, value in config.items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        kind = {int: int, float: (int, float)}.get(action.type, str)
        kind = bool if action.nargs == 0 else kind
        wrong = isinstance(value, bool) != (kind is bool) or not isinstance(value, kind)
        if wrong or (action.choices is not None and value not in action.choices):
            raise ValueError(f"config value {value!r} does not fit option {key!r}")
        config[key] = action.type(value) if action.type else value
    return config


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # explicit flags, in either --flag value or --flag=value form, win
            # over defaults, so the file's values enter as defaults
            args.parser.set_defaults(**_config_defaults(args.parser, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
