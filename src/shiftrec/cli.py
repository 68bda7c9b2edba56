"""Command-line harness: every experiment as a reproducible subcommand.

Exit status: 0 when all bounds and certificates pass, 1 when a measure
bound is violated (a construction bug or a tampered certificate), 2 for
usage or data errors.  Identical configurations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bitseq import ExplicitPrefixSource, FileSource, PseudorandomSource, Word
from .certificates import (
    TestCertificate,
    certificates_from_json,
    json_text,
    verify_certificate,
)
from .dyadic import Dyadic
from .errors import BoundViolationError, ShiftrecError
from .kurtz import kurtz_capture, kurtz_stage_set
from .measure import ClopenSet, CubeSet, StagedCoEnumeration, keyword_number, stage_tokens
from .mltest import ml_escape_level, ml_run
from .multidim import (
    GridMLConstruction,
    SeededGridSource,
    grid_find_witness,
    grid_kurtz_stage_set,
    shell_words,
)
from .recurrence import (
    Pi01Target,
    RecurrenceQuery,
    batch_statistics,
    find_witness,
)
from .rotation import (
    RotationSystem,
    cf_accelerated_return,
    default_precision,
    dirichlet_ceiling,
    exact_fraction,
    find_multi_return,
    verify_return,
)

# every package error but a violated bound (caught first) is a usage or data error
_USAGE_ERRORS = (ValueError, OSError, KeyError, ShiftrecError)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cert_csv(certs: list[TestCertificate]) -> str:
    def fmt(value) -> str:
        if isinstance(value, (list, tuple)):
            return "+".join(str(v) for v in value)
        return str(value)

    rows = ["kind,label,word_count,exact_measure,required_bound,pass"]
    for c in certs:
        label = ";".join(f"{k}={fmt(v)}" for k, v in sorted(c.parameters.items()))
        rows.append(
            f"{c.kind},{label},{c.cover.word_count},{c.exact_measure},{c.required_bound},"
            f"{str(c.passes).lower()}"
        )
    return "\n".join(rows) + "\n"


def _load_class_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    first = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")
    if first.startswith("granularity"):
        return ClopenSet.from_text(text)
    if first.startswith("dimension"):
        return _array_coenum_from_text(text)
    if first.startswith("stage"):
        return StagedCoEnumeration.from_text(text)
    raise ValueError(f"unrecognized class file (first line {first!r})")


def _array_coenum_from_text(text: str) -> StagedCoEnumeration:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    dim = keyword_number(lines[0], "dimension")
    stages = {
        t: CubeSet.from_words(shell_words(dim, t, tokens)).cubes
        for t, tokens in stage_tokens(lines[1:]).items()
    }
    return StagedCoEnumeration(stages, dimension=dim)


def _resolve_target(args) -> ClopenSet | StagedCoEnumeration:
    """The ``--clopen`` or ``--class-file`` target: a clopen set, or the
    one-dimensional co-enumeration of a closed set's complement."""
    if args.clopen:
        return ClopenSet.from_strings(args.clopen.split(","))
    if args.class_file:
        loaded = _load_class_file(args.class_file)
        if isinstance(loaded, StagedCoEnumeration) and loaded.dimension != 1:
            raise ValueError("grid class files only apply to the grid subcommand")
        return loaded
    raise ValueError("no target given: use --clopen or --class-file")


def _resolve_coenum(args) -> StagedCoEnumeration:
    target = _resolve_target(args)
    if isinstance(target, ClopenSet):
        return StagedCoEnumeration({target.granularity: target.complement().cubes})
    return target


def _single_source(args):
    if args.bits is not None:
        return ExplicitPrefixSource(Word.from_string(args.bits), 0)
    if args.bits_file is not None:
        return FileSource(args.bits_file)
    if args.seed is not None:
        return PseudorandomSource(args.seed[0])
    return None


def _seed_list(args) -> list[int] | None:
    seeds: list[int] = []
    if args.seed:
        seeds.extend(args.seed)
    if args.seeds_file:
        with open(args.seeds_file, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
        if not tokens and not seeds:
            raise ValueError(f"seeds file {args.seeds_file} holds no seeds")
        for tok in tokens:
            try:
                seeds.append(int(tok))
            except ValueError:
                raise ValueError(
                    f"seeds file {args.seeds_file}: {tok!r} is not an integer seed"
                ) from None
    return seeds or None


def _cmd_recur(args) -> int:
    target = _resolve_target(args)
    if isinstance(target, StagedCoEnumeration):
        budget = args.stage_max if args.stage_max is not None else target.max_stage
        target = Pi01Target(target, budget)
    n_max = args.n_max if args.n_max is not None else 100
    k = args.k if args.k is not None else 1
    if args.bits is not None or args.bits_file is not None:
        source = _single_source(args)
        report = find_witness(RecurrenceQuery(source, target, k, n_max))
        if args.format == "csv":
            w = report.witness
            text = "seed,k,n_max,witness\n" + f",{k},{n_max},{'' if w is None else w}\n"
        else:
            text = json_text({"subcommand": "recur", **report.to_json_dict()})
        _emit(text, args.out)
        return 0
    seeds = _seed_list(args)
    if seeds is None:
        raise ValueError("recur needs --seed, --seeds-file, --bits or --bits-file")
    summary = batch_statistics(seeds, target, k, n_max)
    if args.format == "csv":
        text = "\n".join(summary.to_csv_rows()) + "\n"
    else:
        text = json_text({"subcommand": "recur", **summary.to_json_dict()})
    _emit(text, args.out)
    return 0


def _cmd_kurtz(args) -> int:
    target = _resolve_target(args)
    if not isinstance(target, ClopenSet):
        raise ValueError("the kurtz subcommand needs a clopen target")
    k = args.k if args.k is not None else 1
    t_count = args.t_max if args.t_max is not None else 2
    certs = [kurtz_stage_set(target, k, t) for t in range(t_count)]
    payload = {
        "subcommand": "kurtz",
        "parameters": {"k": k, "stages": t_count, "granularity": target.granularity},
        "certificates": [c.to_json_dict() for c in certs],
        "all_pass": all(c.passes for c in certs),
    }
    source = _single_source(args)
    if source is not None:
        captured, escape = kurtz_capture(source, target, k, t_count - 1)
        payload["capture"] = {"captured": captured, "escape_stage": escape}
    text = _cert_csv(certs) if args.format == "csv" else json_text(payload)
    _emit(text, args.out)
    return 0


def _cmd_schnorr(args) -> int:
    from .schnorr import schnorr_error_set, schnorr_schedule, schnorr_union_bound

    coenum = _resolve_coenum(args)
    k = args.k if args.k is not None else 1
    v = args.v if args.v is not None else 0
    t_max = args.t_max if args.t_max is not None else 3
    schedule = schnorr_schedule(coenum, k, v, t_max)
    certs = [schnorr_error_set(coenum, schedule, k, v, t) for t in range(1, t_max + 1)]
    union = schnorr_union_bound(certs)
    payload = {
        "subcommand": "schnorr",
        "parameters": {"k": k, "v": v, "t_max": t_max},
        "schedule": list(schedule.times),
        "certificates": [c.to_json_dict() for c in certs],
        "union_measure": str(union),
        "level_bound": str(Dyadic(1, v)),
        "all_pass": all(c.passes for c in certs),
    }
    text = _cert_csv(certs) if args.format == "csv" else json_text(payload)
    _emit(text, args.out)
    return 0


def _cmd_mltest(args) -> int:
    coenum = _resolve_coenum(args)
    k = args.k if args.k is not None else 1
    stage_max = args.stage_max if args.stage_max is not None else 12
    r_max = args.r if args.r is not None else 3
    result = ml_run(coenum, k, stage_max, r_max, m_max=args.m_max, u_max=args.u_max)
    payload = {
        "subcommand": "mltest",
        "parameters": {"k": k, "stage_max": stage_max, "r_max": r_max},
        "path": result.path,
        "q": str(result.q),
        "certificates": [c.to_json_dict() for c in result.level_certs],
        "all_pass": all(c.passes for c in result.all_certificates()),
    }
    if result.path == "split":
        payload["split"] = {
            "head": CubeSet(result.head).strings(),
            "head_max_len": result.head_max_len,
            "tail_q": str(result.tail_q),
        }
        payload["g_certificates"] = [c.to_json_dict() for c in result.g_certs]
        payload["refined_certificates"] = [c.to_json_dict() for c in result.refined_certs]
        payload["refinement"] = [
            {"j": lv.j, "u": lv.u, "bound": str(lv.bound)} for lv in result.refinement
        ]
        source = _single_source(args)
        if source is not None:
            prefix = source.prefix(stage_max)
            payload["escape_level"] = ml_escape_level(prefix, result.g_certs)
    text = (
        _cert_csv(result.all_certificates())
        if args.format == "csv"
        else json_text(payload)
    )
    _emit(text, args.out)
    return 0


def _cmd_grid(args) -> int:
    args.op = args.op or "witness"
    reads = {"op", *_OUTPUT, *_GRID_OP_FLAGS[args.op]}
    for flag in _SUBCOMMAND_FLAGS["grid"]:
        if flag not in reads and getattr(args, flag.replace("-", "_")) is not None:
            raise ValueError(f"grid --op {args.op} does not read --{flag}")
    dim = args.dimension if args.dimension is not None else 2
    if args.op in ("witness", "kurtz"):
        if not args.target_bits:
            raise ValueError(f"grid {args.op} needs --target-bits")
        n1 = args.n1 if args.n1 is not None else 1
        words = shell_words(dim, n1, args.target_bits.split(","))
        target = ClopenSet(n1**dim, words)
    if args.op == "witness":
        seed = args.seed[0] if args.seed else 0
        n_max = args.n_max if args.n_max is not None else 64
        n = grid_find_witness(SeededGridSource(seed, dim), target, n_max)
        text = (
            f"seed,dimension,n_max,witness\n{seed},{dim},{n_max},{'' if n is None else n}\n"
            if args.format == "csv"
            else json_text({"subcommand": "grid", "op": "witness", "seed": seed, "witness": n})
        )
        _emit(text, args.out)
        return 0
    if args.op == "kurtz":
        r = args.r if args.r is not None else 1
        certs = [grid_kurtz_stage_set(target, dim, stage) for stage in range(1, r + 1)]
    else:
        if not args.class_file:
            raise ValueError("grid ml needs --class-file with an array co-enumeration")
        coenum = _load_class_file(args.class_file)
        if not isinstance(coenum, StagedCoEnumeration):
            raise ValueError("grid ml needs an array co-enumeration class file")
        stage_max = args.stage_max if args.stage_max is not None else 5
        r_max = args.r if args.r is not None else 1
        con = GridMLConstruction(coenum, stage_max)
        certs = [con.level_certificate(r) for r in range(r_max + 1)]
    payload = {
        "subcommand": "grid",
        "op": args.op,
        "certificates": [c.to_json_dict() for c in certs],
        "all_pass": all(c.passes for c in certs),
    }
    text = _cert_csv(certs) if args.format == "csv" else json_text(payload)
    _emit(text, args.out)
    return 0


def _cmd_rotate(args) -> int:
    alpha = args.alpha if args.alpha is not None else "golden"
    k = args.k if args.k is not None else 1
    epsilon = exact_fraction(args.epsilon if args.epsilon is not None else "1/20", "epsilon")
    precision = args.precision if args.precision is not None else default_precision()
    system = RotationSystem(alpha, precision)
    ceiling = dirichlet_ceiling(k, epsilon)
    n_max = args.n_max if args.n_max is not None else ceiling
    cf = cf_accelerated_return(system, k, epsilon)
    scan = find_multi_return(system, k, epsilon, n_max, convergent=cf)
    payload = {
        "subcommand": "rotate",
        "alpha": system.describe(),
        "k": k,
        "epsilon": f"{epsilon.numerator}/{epsilon.denominator}",
        "ceiling": ceiling,
        "scan": None if scan is None else scan.to_json_dict(),
        "cf": cf.to_json_dict(),
        "scan_verified": None if scan is None else verify_return(system, scan),
    }
    if args.format == "csv":
        rows = ["alpha,k,epsilon,method,n,max_distance"]
        eps = f"{epsilon.numerator}/{epsilon.denominator}"
        if scan is not None:
            rows.append(
                f"{system.describe()},{k},{eps},scan,{scan.n},{float(scan.max_distance())!r}"
            )
        rows.append(
            f"{system.describe()},{k},{eps},cf,{cf.n},{float(cf.max_distance())!r}"
        )
        text = "\n".join(rows) + "\n"
    else:
        text = json_text(payload)
    _emit(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    with open(args.certificate, "r", encoding="utf-8") as fh:
        certs = certificates_from_json(fh.read())
    lines = []
    bad = False
    for idx, cert in enumerate(certs):
        problems = verify_certificate(cert)
        if problems:
            bad = True
            lines.append(f"certificate {idx} ({cert.kind}): " + "; ".join(problems))
        else:
            lines.append(f"certificate {idx} ({cert.kind}): ok")
    _emit("\n".join(lines or ["no certificates"]) + "\n", args.out)
    return 1 if bad else 0


def _count(text: str) -> int:
    """A flag value that counts levels, stages or steps: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, not {text!r}")
    return value


# Every flag's argparse settings; each subcommand takes only the flags it reads.
_FLAGS = {
    "k": dict(type=int),
    "r": dict(type=_count),
    "v": dict(type=_count),
    "t-max": dict(type=_count),
    "n-max": dict(type=_count),
    "stage-max": dict(type=_count),
    "m-max": dict(type=_count),
    "u-max": dict(type=_count),
    "epsilon": dict(type=str),
    "alpha": dict(type=str),
    "precision": dict(type=int),
    "seed": dict(type=int, action="append"),
    "seeds-file": dict(type=str),
    "bits": dict(type=str),
    "bits-file": dict(type=str),
    "class-file": dict(type=str),
    "clopen": dict(type=str),
    "target-bits": dict(type=str),
    "n1": dict(type=int),
    "dimension": dict(type=int),
    "op": dict(choices=("witness", "kurtz", "ml")),
    "format": dict(choices=("csv", "json")),
    "out": dict(type=str),
    "config": dict(type=str),
}

# The flags each grid --op reads; a grid flag that the op does not read is a usage error.
_GRID_OP_FLAGS = {
    "witness": ("dimension", "target-bits", "n1", "seed", "n-max"),
    "kurtz": ("dimension", "target-bits", "n1", "r"),
    "ml": ("class-file", "r", "stage-max"),
}

_TARGET = ("clopen", "class-file")
_SOURCE = ("bits", "bits-file", "seed")
_OUTPUT = ("format", "out", "config")

_SUBCOMMAND_FLAGS = {
    "recur": (*_TARGET, "stage-max", "k", "n-max", *_SOURCE, "seeds-file", *_OUTPUT),
    "kurtz": (*_TARGET, "k", "t-max", *_SOURCE, *_OUTPUT),
    "schnorr": (*_TARGET, "k", "v", "t-max", *_OUTPUT),
    "mltest": (*_TARGET, "k", "r", "stage-max", "m-max", "u-max", *_SOURCE, *_OUTPUT),
    "grid": ("op", *dict.fromkeys(f for op in _GRID_OP_FLAGS.values() for f in op), *_OUTPUT),
    "rotate": ("alpha", "k", "epsilon", "precision", "n-max", *_OUTPUT),
    "verify": ("out", "config"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand; given a ``command``, only that
    subcommand gets its flags (the others are still listed, so ``--help``
    and an unknown name behave the same)."""
    parser = argparse.ArgumentParser(
        prog="shiftrec",
        description="Recurrence witnesses, exact cylinder measures, and "
        "randomness-test certificates on shift spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name)
        if command in (None, name):
            if name == "verify":
                p.add_argument("certificate", type=str)
            _add_flags(p, _SUBCOMMAND_FLAGS[name])
        p.set_defaults(func=fn)
    return parser


def _add_flags(parser: argparse.ArgumentParser, flags) -> None:
    for flag in flags:
        parser.add_argument(f"--{flag}", dest=flag.replace("-", "_"), **_FLAGS[flag])


def _apply_config(args: argparse.Namespace) -> None:
    """Fill the flags not given on the command line from the ``--config`` file,
    each value parsed as that flag's own argument (a list repeats an append flag)."""
    if getattr(args, "config", None) is None:
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise ValueError("a config file must hold a JSON object")
    flags = _SUBCOMMAND_FLAGS[args.command]
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    _add_flags(parser, flags)
    parsed = argparse.Namespace()
    for key, value in conf.items():
        flag = key.replace("_", "-")
        if flag not in flags:
            raise ValueError(f"unknown config key {key!r} for {args.command}")
        repeat = isinstance(value, list) and _FLAGS[flag].get("action") == "append"
        values = value if repeat else [value]
        if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in values):
            raise ValueError(f"config key {key!r} must be a string or a number")
        try:
            parser.parse_args([f"--{flag}={v}" for v in values], parsed)
        except argparse.ArgumentError as exc:
            raise ValueError(f"config key {key!r}: {exc.message}") from None
    for dest, value in vars(parsed).items():
        if value is not None and getattr(args, dest) is None:
            setattr(args, dest, value)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser takes no flag but --help, so its first other
    # argument names the subcommand
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        _apply_config(args)
        seeds = getattr(args, "seed", None) or ()
        if args.command != "recur" and len(seeds) > 1:
            raise ValueError(f"{args.command} reads one --seed, got {len(seeds)}")
        if getattr(args, "format", None) is None:
            args.format = "json"
        return args.func(args)
    except BoundViolationError as exc:
        print(f"bound violated: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


_COMMANDS = {
    "recur": _cmd_recur,
    "kurtz": _cmd_kurtz,
    "schnorr": _cmd_schnorr,
    "mltest": _cmd_mltest,
    "grid": _cmd_grid,
    "rotate": _cmd_rotate,
    "verify": _cmd_verify,
}


if __name__ == "__main__":
    sys.exit(main())
