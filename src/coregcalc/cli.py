"""Batch command-line surface with exact-rational text I/O.

Rationals read and print as ``p/q`` in lowest terms; set output is one value
per line, sorted ascending, with ``--witness`` appending a provenance record
per value.  Exit codes: 0 success, 1 membership-false / not-found-within-
bound, 2 usage or domain error.
"""

import argparse
import dataclasses
import functools
import sys

from . import dualcx, lctsets, setalg, toric
from .rationals import format_rational, parse_rational
from .setalg import CoeffSet, DomainError, EnumBounds

# The command line's default term bound; the library's EnumBounds has 4.
DEFAULT_TERMS = 12


def _parse_set(text):
    if text is None:
        return CoeffSet.of([])
    return CoeffSet.parse(text)


_BOUND_KEYS = {"terms": int, "index": int, "value": parse_rational, "denom": int}


def _parse_bounds(text):
    """EnumBounds from `key=value,...`; each key at most once."""
    given = {}
    for item in text.split(",") if text else ():
        key, _, raw = item.partition("=")
        key = key.strip()
        if not raw:
            raise DomainError(f"malformed bounds item {item!r}")
        if key not in _BOUND_KEYS:
            raise DomainError(f"unknown bounds key {key!r}")
        if key in given:
            raise DomainError(f"repeated bounds key {key!r}")
        given[key] = _BOUND_KEYS[key](raw)
    return EnumBounds(given.get("terms", DEFAULT_TERMS), given.get("index", 6),
                      given.get("value"), given.get("denom"))


def _verdict(ok, out, detail=""):
    """Write `true<detail>` or `false`; the exit code is 0 or 1 to match."""
    out.write((f"true{detail}" if ok else "false") + "\n")
    return 0 if ok else 1


def _print_set(elements, out):
    for x in elements:
        out.write(format_rational(x) + "\n")


def _print_lct_set(ls, witness, out):
    for lv in ls:
        if witness:
            out.write(f"{format_rational(lv.value)}\t{lv.witness}\n")
        else:
            out.write(format_rational(lv.value) + "\n")


def _add_set_args(p, need_j=False):
    p.add_argument("--I", metavar="SET", help="comma-separated generators of I (default: empty)")
    if need_j:
        p.add_argument("--J", metavar="SET", help="comma-separated generators of J")
    p.add_argument(
        "--bounds",
        metavar="KEY=V,...",
        help="enumeration bounds: terms=T,index=M,value=V,denom=D; the command "
        f"line defaults to terms={DEFAULT_TERMS},index=6 (the library's EnumBounds "
        "defaults to terms=4)",
    )


@functools.cache
def build_parser():
    """The argument parser, built on first use and reused by every `run`."""
    parser = argparse.ArgumentParser(
        prog="coregcalc",
        description="Exact coefficient-set calculus and threshold sets of "
        "coregularity zero and one.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plus", help="the sum closure I+ = {0} u {sums of I in [0,1]}")
    _add_set_args(p)

    p = sub.add_parser("dset", help="the derived set D(I) = {(m-1+f)/m <= 1 : f in I+}")
    _add_set_args(p)

    p = sub.add_parser(
        "ddset", help="the shifted derived set D_d(I) = {(m-1+f+k*d)/m <= 1 : f in I+}"
    )
    _add_set_args(p)
    p.add_argument("--d", required=True, help="the shift d in (0,1]")

    p = sub.add_parser(
        "mem",
        help="exact membership decision in I+, D(I), D_d(I), LCT0(I,J), or LCT1(I,J)",
    )
    p.add_argument("target", choices=["plus", "dset", "ddset", "lct0", "lct1"])
    p.add_argument("value", help="the rational to test")
    _add_set_args(p, need_j=True)
    p.add_argument("--d", help="shift for the ddset target")
    p.add_argument("--triple-bound", type=int, default=5, help="triple search bound for lct1")

    p = sub.add_parser(
        "lct0",
        help="the coregularity-zero threshold set {(1-i)/j : i in I+, "
        "j a positive combination of J}",
    )
    _add_set_args(p, need_j=True)
    p.add_argument("--witness", action="store_true", help="append provenance per value")

    p = sub.add_parser(
        "lct1",
        help="the coregularity-one threshold set: union over 1/p+1/q+1/r > 1 of "
        "{(qr+pr+pq-pqr-i)/j} with weighted i,j-combinations",
    )
    _add_set_args(p, need_j=True)
    p.add_argument("--witness", action="store_true")
    p.add_argument(
        "--three-term",
        action="store_true",
        help="restrict to the three displayed slots (no pqr-weighted tail)",
    )

    p = sub.add_parser(
        "p1-oracle",
        help="independent oracle: solve sum_k (N_k-1+i_k+t*j_k)/N_k = degree "
        "on the projective line for t",
    )
    _add_set_args(p, need_j=True)
    p.add_argument("--degree", type=int, choices=[1, 2], required=True)
    p.add_argument("--witness", action="store_true")
    p.add_argument(
        "--no-cap-unit",
        action="store_true",
        help="drop the per-term coefficient cap i_k + t*j_k <= 1",
    )

    p = sub.add_parser(
        "acc-above",
        help="ascending-chain witness: all threshold-set elements >= t, exactly",
    )
    _add_set_args(p, need_j=True)
    p.add_argument("--c", type=int, choices=[0, 1], required=True)
    p.add_argument("--t", required=True, help="lower cutoff, must be > 0")
    p.add_argument("--triple-cutoff", type=int, help="triple family cutoff for c=1")
    p.add_argument("--witness", action="store_true")

    p = sub.add_parser(
        "accum",
        help="symbolic accumulation-point candidates of the threshold set, "
        "with their parametric families",
    )
    _add_set_args(p, need_j=True)
    p.add_argument("--c", type=int, choices=[0, 1], required=True)

    p = sub.add_parser(
        "dualcx",
        help="dual complex of a stratified boundary: regularity (complex "
        "dimension, minimal-maximal-simplex convention) and coregularity",
    )
    p.add_argument("file", help="stratification file: dim/divisors/stratum lines")
    p.add_argument(
        "--max-convention",
        action="store_true",
        help="also report the usual largest-simplex dimension, for comparison",
    )

    p = sub.add_parser(
        "toric-lct",
        help="threshold of a simplicial toric pair: min over rays with c_i > 0 "
        "of (1-b_i)/c_i",
    )
    p.add_argument("file", help="cone file: dim, rays, b:, c: lines")
    p.add_argument(
        "--oracle", type=int, metavar="RADIUS",
        help="cross-check against the lattice-point scan with this box radius",
    )

    p = sub.add_parser(
        "lemma-check",
        help="verify D(D(I)) = D(I) u {1}, or that d1 in D_d(I) implies "
        "D_d1(I) is contained in D_d(I)",
    )
    p.add_argument("lemma", choices=["ddi", "dd-monotone"])
    _add_set_args(p)
    p.add_argument("--d", help="shift for dd-monotone")

    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    I = _parse_set(getattr(args, "I", None))
    b = _parse_bounds(getattr(args, "bounds", None))
    J = _parse_set(getattr(args, "J", None))

    if args.command == "plus":
        _print_set(setalg.plus_closure(I, b), out)
        return 0

    if args.command == "dset":
        _print_set(setalg.d_set(I, b), out)
        return 0

    if args.command == "ddset":
        _print_set(setalg.d_d_set(I, parse_rational(args.d), b), out)
        return 0

    if args.command == "mem":
        a = parse_rational(args.value)
        if args.target == "plus":
            return _verdict(setalg.mem_plus_closure(a, I), out)
        if args.target == "dset":
            return _verdict(setalg.mem_d_set(a, I), out)
        if args.target == "ddset":
            if args.d is None:
                raise DomainError("the ddset target needs --d")
            return _verdict(setalg.mem_d_d_set(a, I, parse_rational(args.d)), out)
        if args.target == "lct0":
            ok, w = lctsets.mem_lct0(a, I, J)
            return _verdict(ok, out, f" {w}")
        res = lctsets.mem_lct1(a, I, J, args.triple_bound)
        if res.found:
            out.write(f"true {res.witness}\n")
            return 0
        out.write(f"{res.status} (triples searched up to {res.triple_bound})\n")
        return 1

    if args.command == "lct0":
        # `value=V` doubles as the reduced-denominator cap unless denom= is given
        if b.max_denominator is None and b.max_value is not None and b.max_value.denominator == 1:
            b = dataclasses.replace(b, max_denominator=int(b.max_value))
        _print_lct_set(lctsets.lct0_enumerate(I, J, b), args.witness, out)
        return 0

    if args.command == "lct1":
        ls = lctsets.lct1_enumerate(I, J, b, extra_terms=not args.three_term)
        _print_lct_set(ls, args.witness, out)
        return 0

    if args.command == "p1-oracle":
        ls = lctsets.p1_oracle(I, J, args.degree, b, cap_unit=not args.no_cap_unit)
        _print_lct_set(ls, args.witness, out)
        return 0

    if args.command == "acc-above":
        w = lctsets.verify_acc_above(I, J, args.c, parse_rational(args.t), args.triple_cutoff)
        out.write(f"# {w.detail}\n")
        _print_lct_set(w.elements, args.witness, out)
        return 0

    if args.command == "accum":
        cands, violations = lctsets.accumulation_candidates(I, J, args.c, b)
        for v in violations:
            out.write(f"# hypothesis violation: {v}\n")
        _print_lct_set(cands, True, out)
        return 0

    if args.command == "dualcx":
        with open(args.file) as fh:
            sb = dualcx.parse_stratification(fh.read())
        reg, coreg = dualcx.regularity_coregularity(sb)
        out.write(f"reg {reg}, coreg {coreg}\n")
        if args.max_convention:
            dc = dualcx.build_dual_complex(sb)
            out.write(f"largest-simplex dimension {dualcx.complex_dimension(dc, 'max')}\n")
        return 0

    if args.command == "toric-lct":
        with open(args.file) as fh:
            tp = toric.parse_toric_pair(fh.read())
        val = toric.toric_lct(tp)
        out.write(("infinity" if val is None else format_rational(val)) + "\n")
        if args.oracle is not None:
            ov = toric.toric_lct_oracle(tp, args.oracle)
            agree = ov == val
            out.write(
                "oracle "
                + ("infinity" if ov is None else format_rational(ov))
                + (" (agrees)" if agree else " (MISMATCH)")
                + "\n"
            )
            if not agree:
                return 2
        return 0

    if args.command == "lemma-check":
        if args.lemma == "ddi":
            ok, bad = setalg.check_ddi_lemma(I, b)
        else:
            if args.d is None:
                raise DomainError("dd-monotone needs --d")
            ok, bad = setalg.check_dd_monotone(I, parse_rational(args.d), b)
        code = _verdict(ok, out)
        for item in bad:
            out.write(f"counterexample: {item}\n")
        return code

    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    try:
        sys.exit(run(sys.argv[1:]))
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
