"""Command-line interface: model I/O and the six subcommands.

Exit codes: 0 success, 1 validation error (the message names the violated
invariant), 2 a requested decision came back undecided.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from . import gallery
from .core_model import (
    ModelError,
    FilterModel,
    TransitionMatrix,
    _jsonable,
    _output,
    _partition_from_spec,
    _write_json,
    load_model,
    save_model,
)
from .entropy import entropy_bracket, entropy_rate_mc, entropy_series
from .filter_dynamics import (
    as_prob_vector,
    evolve,
    load_measure,
    save_measure,
    simulate_filter,
)
from .kantorovich import kantorovich_distance, save_plan
from .stability import (
    check_isometry_obstruction,
    compose_rank_one_witness,
    default_col_bound,
    detect_rank_one_limit,
    find_localizing_word,
    find_subrectangular_word,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2

# the keys of `entropy --mc` and the parameters of entropy_rate_mc they set
_MC_KEYS = {"samples": "samples", "burn": "burn_in", "seed": "seed"}


def _check_flag(flag: str, value, low, below=None) -> None:
    """Raise a ModelError naming ``flag`` unless ``value`` is at least ``low``
    and, if ``below`` is given, less than it; NaN is neither."""
    if not (value >= low and (below is None or value < below)):
        bound = f">= {low}" if below is None else f"in [{low}, {below})"
        raise ModelError(f"{flag} must be {bound}, got {value!r}")


def _parse_flag(flag: str, text: str, convert, what: str):
    """``convert(text)``, or a ModelError naming ``flag`` if it raises ValueError."""
    try:
        return convert(text)
    except ValueError:
        raise ModelError(f"{flag} must be {what}, got {text!r}") from None


def _start_vector(model: FilterModel, x0_arg: str | None):
    if x0_arg:
        return as_prob_vector(_parse_flag("--x0", x0_arg, lambda s: list(map(float, s.split(","))),
                                          "comma-separated numbers"))
    if "default_start" in model.meta:
        try:
            return as_prob_vector(model.meta["default_start"])
        except (TypeError, OverflowError):
            raise ModelError("model file 'default_start' must be a list of numbers") from None
    return model.stationary


def _cmd_simulate(args) -> int:
    _check_flag("--seed", args.seed, 0)
    model = load_model(args.model)
    x0 = _start_vector(model, args.x0)
    trace = simulate_filter(x0, model.partition, steps=args.steps, seed=args.seed)
    trace.to_csv(args.out)
    return EXIT_OK


def _cmd_evolve(args) -> int:
    _check_flag("--prune", args.prune, 0, 1)  # no mass exceeds 1, so 1 prunes every word
    _check_flag("--merge-eps", args.merge_eps, 0)  # inf merges every atom into one
    model = load_model(args.model)
    x0 = _start_vector(model, args.x0)
    mu = evolve(x0, model.partition, n=args.steps, prune=args.prune,
                merge_eps=args.merge_eps)
    save_measure(mu, args.out)
    print(f"atoms={mu.size} pruned_mass={mu.pruned_mass:.17g}")
    return EXIT_OK


def _cmd_distance(args) -> int:
    mu = load_measure(args.mu)
    nu = load_measure(args.nu)
    dist, plan = kantorovich_distance(mu, nu)
    print(f"{dist:.12g}")
    if args.plan:
        save_plan(plan, args.plan)
    return EXIT_OK


def _cmd_check(args) -> int:
    _check_flag("--max-word-len", args.max_word_len, 1)
    if args.col_bound is not None:  # a nonzero product has a nonzero column
        _check_flag("--col-bound", args.col_bound, 1)
    if args.tol >= 1:  # rows of mass at most sqrt(tol) are dropped, and none has more than 1
        raise ModelError(f"--tol must be below 1, got {args.tol!r}")
    model = load_model(args.model)
    m = model.partition
    verdict: dict = {"condition": args.condition}
    code = EXIT_OK
    if args.condition == "a":
        word = find_subrectangular_word(m, max_len=args.max_word_len)
        if word is None:
            verdict.update(kind="undecided", note="no subrectangular word within budget")
            code = EXIT_UNDECIDED
        else:
            verdict.update(kind="condition_a", word=list(word))
    elif args.condition == "localizing":
        bound = args.col_bound if args.col_bound is not None else default_col_bound(m.n)
        word = find_localizing_word(m, max_len=args.max_word_len, col_bound=bound)
        verdict["col_bound"] = bound
        if word is None:
            verdict.update(kind="undecided", note="no localizing word within budget")
            code = EXIT_UNDECIDED
        else:
            verdict.update(kind="localizing", word=list(word))
    elif args.condition == "b1":
        res = detect_rank_one_limit(m, tol=args.tol, max_depth=args.max_word_len)
        verdict.update(kind=res.kind, diagnostics=res.diagnostics)
        if res.converged:
            verdict["word"] = list(res.word)
            verdict["W"] = res.W
        else:
            code = EXIT_UNDECIDED
    elif args.condition == "thm93":
        out = compose_rank_one_witness(m, max_len=args.max_word_len, tol=args.tol)
        if out is None:
            verdict.update(kind="undecided", note="prerequisite words not found")
            code = EXIT_UNDECIDED
        else:
            word, W = out
            verdict.update(kind="b1_converged", word=list(word), W=W)
    elif args.condition == "thm11":
        if not args.subset:
            raise ModelError("--subset is required for thm11")
        subset = _parse_flag("--subset", args.subset, lambda s: list(map(int, s.split(","))),
                             "comma-separated state indices")
        _check_flag("--seed", args.seed, 0)
        report = check_isometry_obstruction(
            m, subset, n_max=args.depth, sample_count=args.samples, seed=args.seed)
        verdict.update(
            kind="nonstable" if report.passed else "hypotheses_failed",
            passed=report.passed,
            separation=report.separation,
            isolated_pass=report.isolated_pass,
            equal_words_pass=report.equal_words_pass,
            isometry_pass=report.isometry_pass,
            max_isometry_deviation=report.max_isometry_deviation,
            witnesses=report.witnesses,
        )
    else:  # unreachable behind argparse choices
        raise ModelError(f"unknown condition {args.condition!r}")
    _write_json(_jsonable(verdict), args.out)
    return code


def _param(params: dict, key: str, convert, what: str, default=None):
    """``convert(params[key])``, or ``default`` if there is one and ``key``
    is absent; ``convert`` raises TypeError or ValueError on a bad value."""
    if key not in params and default is not None:
        return default
    try:
        return convert(params[key])
    except KeyError:
        raise ModelError(f"gallery params need {key!r}") from None
    except (TypeError, ValueError, OverflowError):
        raise ModelError(f"gallery param {key!r} must be {what}, got {params[key]!r}") from None


_floats = functools.partial(np.asarray, dtype=float)

# the largest "n" of a random-walk case: building and writing the chain
# peaks at about 1 KB a state, so 2**20 states take about 1.1 GB
RANDOM_WALK_MAX_STATES = 2**20


def _cmd_gallery(args) -> int:
    params = {}
    if args.params:
        with open(args.params) as fh:
            params = json.load(fh)
        if not isinstance(params, dict):
            raise ModelError("gallery params must be a JSON object")
    if args.kind == "kesten":
        model = gallery.kesten_model()
    elif args.kind == "random-walk":
        if "case" in params or not params:
            case, n = params.get("case", "a"), _param(params, "n", int, "an integer", 64)
            if case not in ("a", "b"):
                raise ModelError(f"random-walk case must be 'a' or 'b', got {case!r}")
            if n > RANDOM_WALK_MAX_STATES:
                raise ModelError(f"gallery param 'n' must be at most {RANDOM_WALK_MAX_STATES}, "
                                 f"got {n}")
            model = gallery.random_walk_case_a(n) if case == "a" else gallery.random_walk_case_b(n)
        else:
            n = _param(params, "n", int, "an integer")
            a, b, c = (_param(params, k, lambda v: tuple(map(float, v)), "a list of numbers")
                       for k in "abc")
            model = gallery.random_walk_model(gallery.RandomWalkParams(a, b, c, n))
    elif args.kind == "perm-family":
        if not params:
            spec = gallery.kesten_perm_spec()
        else:
            base = TransitionMatrix.from_dense(
                _param(params, "base", _floats, "a square matrix of numbers"))
            members = _partition_from_spec(base, _param(params, "members", dict, "an object"))
            by_text = {str(w): w for w in members.labels}  # Q keys name labels by their text
            if len(by_text) < members.num_labels:
                raise ModelError(f"two perm-family labels in {list(members.labels)!r} "
                                 "have the same text")
            Q = {}
            for key, sigma in _param(params, "Q", dict.items, "an object"):
                try:
                    i, k, w = key.split(",", 2)
                    blocks = int(i), int(k)
                except ValueError:
                    raise ModelError(f"perm-family Q key {key!r} must be 'i,k,label' "
                                     "with integers i and k") from None
                if w not in by_text:
                    raise ModelError(f"perm-family Q key {key!r} names no label of "
                                     f"{list(members.labels)!r}")
                try:
                    Q[(*blocks, by_text[w])] = [int(s) for s in sigma]
                except (TypeError, ValueError, OverflowError):
                    raise ModelError(f"perm-family Q[{key!r}] must be a list of integers, "
                                     f"got {sigma!r}") from None
            spec = gallery.PermFamilySpec(base=base, members=members,
                                          d=_param(params, "d", int, "an integer"), Q=Q)
        model = gallery.perm_family_model(spec)
    elif args.kind == "birkhoff":
        model = gallery.birkhoff_partition_model(
            _param(params, "matrix", _floats, "a square matrix of numbers"))
    else:
        raise ModelError(f"unknown gallery kind {args.kind!r}")
    save_model(model, args.out)
    return EXIT_OK


def _cmd_entropy(args) -> int:
    _check_flag("--horizon", args.horizon, 1)
    _check_flag("--prune", args.prune, 0, 1)
    mc = {}
    for tok in args.mc or ():
        key, _, val = tok.partition("=")
        if key not in _MC_KEYS:
            raise ModelError(f"unknown --mc key {key!r}; the keys are samples, burn and seed")
        mc[_MC_KEYS[key]] = _parse_flag(f"--mc {key}", val, int, f"an integer, as {key}=K")
    _check_flag("--mc seed", mc.get("seed", 0), 0)
    model = load_model(args.model)
    m = model.partition
    pi = model.stationary
    report = entropy_bracket(m, args.horizon, prune=args.prune, pi=pi) if args.bracket else None
    series = report.series if report else entropy_series(pi, m, args.horizon + 1, prune=args.prune)
    lower, upper = report.bracket if report else (None, None)
    # computed before the CSV is written, so that a failed run writes nothing
    mc_line = ("mc_estimate={:.12g} mc_stderr={:.12g}".format(*entropy_rate_mc(m, **mc))
               if args.mc is not None else None)
    v = series.values
    with _output(args.out, newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["n", "H_n", "H_R_n", "L_n", "U_n", "pruned_mass"])
        for k in range(args.horizon):  # every figure is a Python float
            writer.writerow([k + 1, repr(v[k]), repr(v[k + 1] - v[k]),
                             repr(lower[k]) if lower else "", repr(upper[k]) if upper else "",
                             repr(series.pruned_mass)])
    if mc_line is not None:
        print(mc_line)
    return EXIT_OK


@functools.cache  # built once per process; `run` reads FILTERMC_THREADS on each call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filtermc",
        description="Filtering processes of partially observed Markov chains on the simplex.",
    )
    parser.add_argument("--threads", type=int,
                        help="worker threads (accepted for compatibility; execution is deterministic)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample one filter path to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x0", help="comma-separated start vector (default: model start or stationary)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("evolve", help="n-step filter distribution to a measure file")
    p.add_argument("--model", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--x0")
    p.add_argument("--prune", type=float, default=1e-12)
    p.add_argument("--merge-eps", type=float, default=1e-10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("distance", help="exact transport distance between measure files")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--plan", help="write the optimal plan to this JSON file")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("check", help="stability / non-stability diagnostics")
    p.add_argument("--model", required=True)
    p.add_argument("--condition", required=True,
                   choices=["a", "b1", "localizing", "thm93", "thm11"])
    p.add_argument("--max-word-len", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--col-bound", type=int)
    p.add_argument("--subset", help="comma-separated state indices (thm11)")
    p.add_argument("--depth", type=int, default=4, help="word depth for thm11")
    p.add_argument("--samples", type=int, default=6, help="sampled starts for thm11")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="verdict JSON (default: stdout)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gallery", help="generate a built-in model")
    p.add_argument("kind", choices=["kesten", "random-walk", "perm-family", "birkhoff"])
    p.add_argument("--params", help="JSON parameter file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gallery)

    p = sub.add_parser("entropy", help="entropy horizons, brackets, Monte Carlo rate")
    p.add_argument("--model", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--prune", type=float, default=1e-12)
    p.add_argument("--bracket", action="store_true")
    p.add_argument("--mc", nargs="*", metavar="key=val",
                   help="Monte Carlo options: samples=K burn=B seed=S")
    p.add_argument("--out", help="CSV output (default: stdout)")
    p.set_defaults(func=_cmd_entropy)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on bad flags (2) and --help (0)
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    env = os.environ.get("FILTERMC_THREADS", "1")
    try:
        threads = int(env) if args.threads is None else args.threads
    except ValueError:
        print(f"error: FILTERMC_THREADS must be an integer, got {env!r}", file=sys.stderr)
        return EXIT_ERROR
    if threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
