"""Batch command-line surface with exact-rational text I/O.

Rationals read and print as ``p/q`` in lowest terms; set output is one value
per line, sorted ascending, with ``--witness`` appending a provenance record
per value.  Exit codes: 0 success, 1 membership-false / not-found-within-
bound, 2 usage or domain error.

The parser is the command table: ``build_parser`` declares what each
subcommand reads (its sets, its bound keys and, where a mode argument such as
``mem``'s target decides, the options of each mode) and binds its handler with
``set_defaults(run=...)``.  Parsing, refusal and ``--help`` all follow from
that declaration: ``run`` parses argv, refuses every option given twice,
every leftover argument and every bound key and option the command would not
read (exit 2), builds I, J and the bounds, and calls the handler.
"""

import argparse
import dataclasses
import functools
import sys

from . import dualcx, lctsets, setalg, toric
from .rationals import format_rational, parse_rational
from .setalg import CoeffSet, DomainError, EnumBounds

# key: (its EnumBounds field, parser of its value, its part of the --help text)
_BOUND_KEYS = {
    "terms": ("max_terms", int, f"terms=T caps the summands (default {EnumBounds.max_terms})"),
    "index": ("max_index", int,
              f"index=M caps the integer indices (default {EnumBounds.max_index})"),
    "value": ("max_value", parse_rational, "value=V caps the sums of J; an integer V "
              "doubles as the denominator cap unless denom= is given"),
    "denom": ("max_denominator", int, "denom=D keeps the values of reduced denominator at most D"),
}

_TRIPLE_BOUND = 5  # mem lct1's triple search bound when --triple-bound is not given


def _parse_bounds(text, keys):
    """EnumBounds from `key=value,...`; each key at most once, and only the
    `keys` the command reads."""
    given = {}
    for item in text.split(",") if text else ():
        key, _, raw = item.partition("=")
        key = key.strip()
        if not raw:
            raise DomainError(f"malformed bounds item {item!r}")
        if key not in _BOUND_KEYS:
            raise DomainError(f"unknown bounds key {key!r}")
        if key not in keys:
            raise DomainError(f"this command does not read bounds key {key!r} "
                              f"(it reads {', '.join(keys)})")
        field, parse, _ = _BOUND_KEYS[key]
        if field in given:
            raise DomainError(f"repeated bounds key {key!r}")
        given[field] = parse(raw)
    return EnumBounds(**given)


class _Once(argparse.Action):
    """Store a value once, as the answer must not depend on which of two is read
    last; every option and argument it stores defaults to None."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "given more than once")
        setattr(namespace, self.dest, values)


def _verdict(ok, out, detail=""):
    """Write `true<detail>` or `false`; the exit code is 0 or 1 to match."""
    out.write((f"true{detail}" if ok else "false") + "\n")
    return 0 if ok else 1


def _print_set(elements, out):
    """Write one value per line; the exit code is 0."""
    for x in elements:
        out.write(format_rational(x) + "\n")
    return 0


def _print_lct_set(ls, witness, out):
    """Write one value per line, with its witness when asked; the exit code is 0."""
    for lv in ls:
        if witness:
            out.write(f"{format_rational(lv.value)}\t{lv.witness}\n")
        else:
            out.write(format_rational(lv.value) + "\n")
    return 0


def _shift(args, what):
    """The shift given with --d; `what` names the command that needs it."""
    if args.d is None:
        raise DomainError(f"{what} needs --d")
    return parse_rational(args.d)


def _format_threshold(v):
    """A toric threshold: None is the infinite threshold of a pair with c = 0."""
    return "infinity" if v is None else format_rational(v)


# ---------------------------------------------------------------------------
# handlers: each takes (args, I, J, bounds, out) and returns the exit code


def _plus(args, I, J, b, out):
    return _print_set(setalg.plus_closure(I, b), out)


def _dset(args, I, J, b, out):
    return _print_set(setalg.d_set(I, b), out)


def _ddset(args, I, J, b, out):
    return _print_set(setalg.d_d_set(I, parse_rational(args.d), b), out)


def _mem(args, I, J, b, out):
    a = parse_rational(args.value)
    if args.target == "ddset":
        return _verdict(setalg.mem_d_d_set(a, I, _shift(args, "the ddset target")), out)
    if args.target == "plus":
        return _verdict(setalg.mem_plus_closure(a, I), out)
    if args.target == "dset":
        return _verdict(setalg.mem_d_set(a, I), out)
    if args.target == "lct0":
        w = lctsets.mem_lct0(a, I, J)
        return _verdict(w is not None, out, f" {w}")
    bound = _TRIPLE_BOUND if args.triple_bound is None else args.triple_bound
    w = lctsets.mem_lct1(a, I, J, bound)
    if w is None:
        out.write(f"not-found-within-bound (triples searched up to {bound})\n")
        return 1
    return _verdict(True, out, f" {w}")


def _lct0(args, I, J, b, out):
    # `value=V` doubles as the reduced-denominator cap unless denom= is given
    if b.max_denominator is None and b.max_value is not None and b.max_value.denominator == 1:
        b = dataclasses.replace(b, max_denominator=int(b.max_value))
    return _print_lct_set(lctsets.lct0_enumerate(I, J, b), args.witness, out)


def _lct1(args, I, J, b, out):
    ls = lctsets.lct1_enumerate(I, J, b, extra_terms=not args.three_term)
    return _print_lct_set(ls, args.witness, out)


def _p1_oracle(args, I, J, b, out):
    ls = lctsets.p1_oracle(I, J, args.degree, b, cap_unit=not args.no_cap_unit)
    return _print_lct_set(ls, args.witness, out)


def _acc_above(args, I, J, b, out):
    w = lctsets.verify_acc_above(I, J, args.c, parse_rational(args.t), args.triple_cutoff)
    out.write(f"# {w.detail}\n")
    return _print_lct_set(w.elements, args.witness, out)


def _accum(args, I, J, b, out):
    cands, violations = lctsets.accumulation_candidates(I, J, args.c, b)
    for v in violations:
        out.write(f"# hypothesis violation: {v}\n")
    return _print_lct_set(cands, True, out)


def _dualcx(args, I, J, b, out):
    with open(args.file) as fh:
        sb = dualcx.parse_stratification(fh.read())
    reg, coreg = dualcx.regularity_coregularity(sb)
    out.write(f"reg {reg}, coreg {coreg}\n")
    if args.max_convention:
        dc = dualcx.build_dual_complex(sb)
        out.write(f"largest-simplex dimension {dualcx.complex_dimension(dc, 'max')}\n")
    return 0


def _toric_lct(args, I, J, b, out):
    with open(args.file) as fh:
        tp = toric.parse_toric_pair(fh.read())
    val = toric.toric_lct(tp)
    out.write(_format_threshold(val) + "\n")
    if args.oracle is None:
        return 0
    ov = toric.toric_lct_oracle(tp, args.oracle)
    agree = ov == val
    out.write(f"oracle {_format_threshold(ov)} ({'agrees' if agree else 'MISMATCH'})\n")
    return 0 if agree else 2


def _lemma_check(args, I, J, b, out):
    if args.lemma == "dd-monotone":
        ok, bad = setalg.check_dd_monotone(I, _shift(args, "dd-monotone"), b)
        found = [f"d1={format_rational(d1)}, a={format_rational(a)}" for d1, a in bad]
    else:
        ok, bad = setalg.check_ddi_lemma(I, b)
        found = [f"{what}: {format_rational(x)}" for what, x in bad]
    code = _verdict(ok, out)
    for item in found:
        out.write(f"counterexample: {item}\n")
    return code


@functools.cache
def build_parser():
    """The argument parser, built on first use and reused by every `run`."""
    parser = argparse.ArgumentParser(
        prog="coregcalc",
        description="Exact coefficient-set calculus and threshold sets of "
        "coregularity zero and one.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, sets="", keys=(), modes=None):
        """The subcommand `name`, run by `handler`, that reads the sets in
        `sets`, each as an option --X, and the bound `keys`, through --bounds
        when there are any.  `modes` is (dest, phrase, reads) when the
        argument `dest` picks a mode: `reads` maps each mode to the options
        it reads, and `run` refuses the others, naming the modes that read
        them with `phrase`."""
        p = sub.add_parser(name, help=help, description=help)
        p.register("action", None, _Once)
        p.set_defaults(run=handler, keys=keys, modes=modes, parser=p)
        for s in sets:
            default = " (default: empty)" if s == "I" else ""
            p.add_argument(f"--{s}", metavar="SET",
                           help=f"comma-separated generators of {s}{default}")
        if keys:
            p.add_argument(
                "--bounds",
                metavar="KEY=V,...",
                help="enumeration bounds, each key at most once: "
                + "; ".join(_BOUND_KEYS[k][2] for k in keys),
            )
        return p

    command("plus", _plus, "the sum closure I+ = {0} u {sums of I in [0,1]}", "I", ("terms",))

    command("dset", _dset, "the derived set D(I) = {(m-1+f)/m <= 1 : f in I+}", "I",
            ("terms", "index"))

    p = command(
        "ddset", _ddset,
        "the shifted derived set D_d(I) = {(m-1+f+k*d)/m <= 1 : f in I+}", "I",
        ("terms", "index"),
    )
    p.add_argument("--d", required=True, help="the shift d in (0,1]")

    mem_reads = {"plus": (), "dset": (), "ddset": ("d",), "lct0": ("J",),
                 "lct1": ("J", "triple_bound")}
    p = command(
        "mem", _mem,
        "exact membership decision in I+, D(I), D_d(I), LCT0(I,J), or LCT1(I,J)", "IJ",
        modes=("target", "the {} target", mem_reads),
    )
    p.add_argument("target", choices=list(mem_reads),
                   help="the set to decide: I+, D(I), D_d(I), LCT0(I,J) or LCT1(I,J)")
    p.add_argument("value", help="the rational to test")
    p.add_argument("--d", help="shift for the ddset target")
    p.add_argument("--triple-bound", type=int,
                   help=f"triple search bound for the lct1 target (default: {_TRIPLE_BOUND})")

    p = command(
        "lct0", _lct0,
        "the coregularity-zero threshold set {(1-i)/j : i in I+, "
        "j a positive combination of J}", "IJ", ("terms", "value", "denom"),
    )
    p.add_argument("--witness", action="store_true", help="append provenance per value")

    p = command(
        "lct1", _lct1,
        "the coregularity-one threshold set: union over 1/p+1/q+1/r > 1 of "
        "{(qr+pr+pq-pqr-i)/j} with weighted i,j-combinations", "IJ",
        ("terms", "index", "denom"),
    )
    p.add_argument("--witness", action="store_true", help="append provenance per value")
    p.add_argument(
        "--three-term",
        action="store_true",
        help="restrict to the three displayed slots (no pqr-weighted tail)",
    )

    p = command(
        "p1-oracle", _p1_oracle,
        "independent oracle: solve sum_k (N_k-1+i_k+t*j_k)/N_k = degree "
        "on the projective line for t", "IJ", ("terms", "index", "denom"),
    )
    p.add_argument("--degree", type=int, choices=[1, 2], required=True)
    p.add_argument("--witness", action="store_true", help="append provenance per value")
    p.add_argument(
        "--no-cap-unit",
        action="store_true",
        help="drop the per-term coefficient cap i_k + t*j_k <= 1",
    )

    p = command(
        "acc-above", _acc_above,
        "ascending-chain witness: the threshold-set elements >= t; all of them "
        "for c=0, those of the triples up to the cutoff for c=1", "IJ",
        modes=("c", "--c {}", {0: (), 1: ("triple_cutoff",)}),
    )
    p.add_argument("--c", type=int, choices=[0, 1], required=True,
                   help="the coregularity of the threshold set")
    p.add_argument("--t", required=True, help="lower cutoff, must be > 0")
    p.add_argument("--triple-cutoff", type=int,
                   help="triple family cutoff for c=1 (default: max(5, floor(2/t)+1))")
    p.add_argument("--witness", action="store_true", help="append provenance per value")

    p = command(
        "accum", _accum,
        "symbolic accumulation-point candidates of the threshold set, "
        "with their parametric families", "IJ", ("terms", "index"),
        modes=("c", "--c {}", {0: (), 1: ("bounds",)}),
    )
    p.add_argument("--c", type=int, choices=[0, 1], required=True,
                   help="the coregularity of the threshold set")

    p = command(
        "dualcx", _dualcx,
        "dual complex of a stratified boundary: regularity (complex "
        "dimension, minimal-maximal-simplex convention) and coregularity",
    )
    p.add_argument("file", help="stratification file: dim/divisors/stratum lines")
    p.add_argument(
        "--max-convention",
        action="store_true",
        help="also report the usual largest-simplex dimension, for comparison",
    )

    p = command(
        "toric-lct", _toric_lct,
        "threshold of a simplicial toric pair: min over rays with c_i > 0 "
        "of (1-b_i)/c_i",
    )
    p.add_argument("file", help="cone file: dim, rays, b:, c: lines")
    p.add_argument(
        "--oracle", type=int, metavar="RADIUS",
        help="cross-check against the lattice-point scan with this box radius",
    )

    p = command(
        "lemma-check", _lemma_check,
        "verify D(D(I)) = D(I) u {1}, or that d1 in D_d(I) implies "
        "D_d1(I) is contained in D_d(I)", "I", ("terms", "index"),
        modes=("lemma", "{}", {"ddi": (), "dd-monotone": ("d",)}),
    )
    p.add_argument("lemma", choices=["ddi", "dd-monotone"])
    p.add_argument("--d", help="shift for dd-monotone")

    return parser


def run(argv) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # the top-level parser reads only the name, so argv[0] is it or a leftover
        (args.parser if argv[0] == args.command else build_parser()).error(
            f"unrecognized arguments: {' '.join(extra)}")
    if args.modes:
        dest, phrase, reads = args.modes
        # in the order of first mention: the first refused is the one named
        for o in dict.fromkeys(o for opts in reads.values() for o in opts):
            if getattr(args, o) is not None and o not in reads[getattr(args, dest)]:
                readers = " or ".join(str(m) for m, opts in reads.items() if o in opts)
                raise DomainError(f"--{o.replace('_', '-')} applies only to "
                                  f"{phrase.format(readers)}")
    I = CoeffSet.parse(getattr(args, "I", None) or "")
    b = _parse_bounds(getattr(args, "bounds", None), args.keys)
    J = CoeffSet.parse(getattr(args, "J", None) or "")
    return args.run(args, I, J, b, sys.stdout)


def main() -> None:
    try:
        sys.exit(run(sys.argv[1:]))
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
