"""Problem-file parser, command dispatcher, and structured output.

A problem file declares one ring, then named ideals, polynomials, unfoldings,
and options; a command consumes the declarations it needs by name (poly `f`,
ideal `I`, unfolding `F`, classify prefers ideal `J`) or, when unambiguous,
the unique declaration of that kind. Results are printed as a single
key-value tree with stable ordering so identical inputs and seeds produce
byte-identical documents; timing goes to stderr as elapsed_ms=N.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import INTERNAL_CODE, GermforgeError, ParseError
from .invariants import (
    GermProblem,
    build_versal_unfolding,
    classify_Ddk,
    determinacy_bound,
    invariant_report,
    make_unfolding,
    positive_codim_locus,
    versality_check,
)
from .jetmorse import _morse_number, jet_context
from .oracle import conservation_check, empirical_splitting
from .polyring import GLOBAL_DP, LOCAL_DS, Poly, Ring, format_poly, parse_poly
from .stdbasis import Ideal, hilbert_samuel
from .tangent import primitive_ideal, tangent_ideal, theta_preserving

KNOWN_OPTIONS = ("trials",)


# ---------------------------------------------------------------------------
# problem files


@dataclass
class ProblemFile:
    text: str
    ring: Ring
    order_name: str
    ideals: Dict[str, Ideal]
    polys: Dict[str, Poly]
    unfoldings: Dict[str, Tuple[Tuple[str, ...], Poly]]
    options: Dict[str, str]

    def digest(self) -> str:
        h = hashlib.sha256(self.text.encode()).hexdigest()[:16]
        return f"sha256:{h}"


def _strip_comments(text: str) -> str:
    out = []
    for line in text.split("\n"):
        cut = line.find("#")
        out.append(line if cut < 0 else line[:cut])
    return "\n".join(out)


def _statements(text: str) -> List[Tuple[str, int, int]]:
    """Semicolon-terminated chunks with the line/column of their first
    nonblank character (comments already stripped)."""
    chunks = []
    start = None  # (line, col)
    buf = []
    line, col = 1, 1
    for ch in text:
        if ch == ";":
            if start is None:
                raise ParseError("empty statement", line, col)
            chunks.append(("".join(buf), start[0], start[1]))
            buf = []
            start = None
        else:
            if not ch.isspace() and start is None:
                start = (line, col)
            if start is not None:
                buf.append(ch)
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1
    if start is not None:
        raise ParseError("statement not terminated by ';'", start[0], start[1])
    return chunks


def _parse_expr(text: str, ring: Ring, what: str, line: int, col: int) -> Poly:
    try:
        return parse_poly(text, ring)
    except GermforgeError as e:
        raise ParseError(f"in {what}: {e.message}", line, col)


def parse_problem_file(text: str, order_name: str = "ds") -> ProblemFile:
    order = LOCAL_DS if order_name == "ds" else GLOBAL_DP
    ring: Optional[Ring] = None
    ideals: Dict[str, Ideal] = {}
    polys: Dict[str, Poly] = {}
    unfoldings: Dict[str, Tuple[Tuple[str, ...], Poly]] = {}
    options: Dict[str, str] = {}
    used_names: set = set()

    def claim(name: str, line: int, col: int) -> None:
        if name in used_names:
            raise ParseError(f"name {name!r} is already defined", line, col)
        used_names.add(name)

    for body, line, col in _statements(_strip_comments(text)):
        words = body.split()
        kind = words[0] if words else ""
        if kind == "ring":
            if ring is not None:
                raise ParseError("ring declared twice", line, col)
            if len(words) < 2:
                raise ParseError("ring needs at least one variable", line, col)
            names = words[1:]
            if len(set(names)) != len(names):
                raise ParseError("repeated ring variable", line, col)
            ring = Ring(names)
            used_names.update(names)
            continue
        if kind == "option":
            if len(words) != 3:
                raise ParseError("option takes a key and a value", line, col)
            if words[1] not in KNOWN_OPTIONS:
                raise ParseError(f"unknown option {words[1]!r}", line, col)
            options[words[1]] = words[2]
            continue
        if ring is None:
            raise ParseError("the ring must be declared first", line, col)
        if kind == "ideal":
            head, eq, expr = body.partition("=")
            parts = head.split()
            if len(parts) != 2 or not eq:
                raise ParseError("expected: ideal name = expr, expr", line, col)
            name = parts[1]
            claim(name, line, col)
            gens = [_parse_expr(piece, ring, f"ideal {name}", line, col)
                    for piece in expr.split(",")]
            ideals[name] = Ideal(ring, gens, order)
            continue
        if kind == "poly":
            head, eq, expr = body.partition("=")
            parts = head.split()
            if len(parts) != 2 or not eq:
                raise ParseError("expected: poly name = expr", line, col)
            name = parts[1]
            claim(name, line, col)
            polys[name] = _parse_expr(expr, ring, f"poly {name}", line, col)
            continue
        if kind == "unfolding":
            head, eq, expr = body.partition("=")
            parts = head.split()
            if len(parts) < 4 or parts[2] != "params" or not eq:
                raise ParseError("expected: unfolding name params p1 .. = expr",
                                 line, col)
            name = parts[1]
            params = parts[3:]
            claim(name, line, col)
            for p in params:
                claim(p, line, col)
            ext = Ring(list(ring.names) + params)
            F = _parse_expr(expr, ext, f"unfolding {name}", line, col)
            unfoldings[name] = (tuple(params), F)
            continue
        raise ParseError(f"unknown statement {kind!r}", line, col)
    if ring is None:
        raise ParseError("no ring declaration", 1, 1)
    return ProblemFile(text, ring, order_name, ideals, polys,
                       unfoldings, options)


# ---------------------------------------------------------------------------
# declaration lookup


def _pick(table: Dict[str, object], preferred: Sequence[str], kind: str):
    for name in preferred:
        if name in table:
            return name, table[name]
    if len(table) == 1:
        return next(iter(table.items()))
    have = ", ".join(table) if table else "none"
    raise GermforgeError(
        "BAD_REQUEST",
        f"cannot choose a {kind}: need one named {preferred[0]!r} or a unique "
        f"declaration (have: {have})")


def the_poly(pf: ProblemFile) -> Poly:
    return _pick(pf.polys, ("f",), "poly")[1]


def the_ideal(pf: ProblemFile, preferred: Sequence[str] = ("I",)) -> Ideal:
    return _pick(pf.ideals, preferred, "ideal")[1]


def the_unfolding(pf: ProblemFile) -> Tuple[Tuple[str, ...], Poly]:
    return _pick(pf.unfoldings, ("F",), "unfolding")[1]


# ---------------------------------------------------------------------------
# document rendering

Value = Union[str, int, "Tree", List[str]]
Tree = List[Tuple[str, "Value"]]


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def render_tree(pairs: Tree, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines: List[str] = []
    for key, val in pairs:
        if isinstance(val, list) and val and isinstance(val[0], tuple):
            lines.append(f"{pad}{key}:")
            lines.extend(render_tree(val, indent + 1))
        elif isinstance(val, list):
            lines.append(f"{pad}{key}:")
            for item in val:
                lines.append(f"{pad}  - {_fmt_scalar(item)}")
        else:
            lines.append(f"{pad}{key}: {_fmt_scalar(val)}")
    return lines


def _inputs_tree(pf: ProblemFile) -> Tree:
    tree: Tree = [
        ("digest", pf.digest()),
        ("order", pf.order_name),
        ("ring", " ".join(pf.ring.names)),
    ]
    for name, I in pf.ideals.items():
        tree.append((f"ideal {name}", ", ".join(format_poly(g) for g in I.gens)))
    for name, p in pf.polys.items():
        tree.append((f"poly {name}", format_poly(p)))
    for name, (params, F) in pf.unfoldings.items():
        tree.append((f"unfolding {name}",
                     f"params {' '.join(params)} = {format_poly(F)}"))
    for key, val in pf.options.items():
        tree.append((f"option {key}", val))
    return tree


# ---------------------------------------------------------------------------
# command handlers: each returns (results tree, settings tree, warnings)


def _cmd_codim(pf: ProblemFile, args) -> Tuple[Tree, Tree, List[str]]:
    f, I = the_poly(pf), the_ideal(pf)
    rep = invariant_report(f, I)
    results: Tree = [
        ("c_ext", str(rep.c_ext)),
        ("c_plain", str(rep.c_plain)),
    ]
    if rep.determinacy is not None:
        results.append(("determinacy", rep.determinacy))
    if rep.basis:
        results.append(("basis", [format_poly(p) for p in rep.basis]))
    return results, [], []


def _theta_for(pf: ProblemFile, args) -> Tuple[object, Ideal, Tree, List[str]]:
    """The vector-field module and membership ideal selected by --theta-mode;
    via-subideal treats the declared ideal as the subideal and works against
    its primitive ideal at the requested truncation."""
    declared = the_ideal(pf)
    mode = getattr(args, "theta_mode", "direct")
    trunc = getattr(args, "trunc", None)
    settings: Tree = [("theta-mode", mode)]
    warnings: List[str] = []
    if mode == "via-subideal":
        if trunc is None:
            raise GermforgeError("PRECONDITION_VIOLATED",
                                 "--theta-mode via-subideal needs --trunc")
        context = primitive_ideal(declared, trunc).ideal
        theta = theta_preserving(declared)
        settings.append(("trunc", trunc))
        warnings.append("TRUNCATED")
    elif trunc is not None:
        context = primitive_ideal(declared, trunc).ideal
        theta = theta_preserving(context)
        settings.append(("trunc", trunc))
        warnings.append("TRUNCATED")
    else:
        context = declared
        theta = theta_preserving(declared)
    return theta, context, settings, warnings


def _cmd_theta(pf: ProblemFile, args) -> Tuple[Tree, Tree, List[str]]:
    theta, _, settings, warnings = _theta_for(pf, args)
    rows = []
    for vec in theta.gens:
        rows.append("(" + ", ".join(format_poly(c) for c in vec) + ")")
    return [("mode", theta.mode), ("generators", rows)], settings, warnings


def _cmd_tangent(pf: ProblemFile, args) -> Tuple[Tree, Tree, List[str]]:
    f = the_poly(pf)
    theta, context, settings, warnings = _theta_for(pf, args)
    tau = tangent_ideal(f, theta)
    results: Tree = [
        ("generators", [format_poly(g) for g in tau.gens]),
        ("context_ideal", ", ".join(format_poly(g) for g in context.gens)),
    ]
    return results, settings, warnings


def _cmd_primitive(pf: ProblemFile, args) -> Tuple[Tree, Tree, List[str]]:
    if args.trunc is None:
        raise GermforgeError("PRECONDITION_VIOLATED", "primitive needs --trunc")
    I = the_ideal(pf)
    prim = primitive_ideal(I, args.trunc)
    results: Tree = [
        ("generators", [format_poly(g) for g in prim.ideal.gens]),
        ("truncation", prim.truncation),
    ]
    return results, [("trunc", args.trunc)], ["TRUNCATED"]


def _cmd_versal_check(pf: ProblemFile, args) -> Tuple[Tree, Tree, List[str]]:
    f, I = the_poly(pf), the_ideal(pf)
    params, F = the_unfolding(pf)
    U = make_unfolding(f, params, F)
    return [("versal", versality_check(U, I))], [], []


def _cmd_versal_build(pf: ProblemFile, args) -> Tuple[Tree, Tree, List[str]]:
    f, I = the_poly(pf), the_ideal(pf)
    U = build_versal_unfolding(f, I)
    results: Tree = [
        ("params", list(U.params)),
        ("F", format_poly(U.F)),
    ]
    return results, [], []


def _cmd_determinacy(pf: ProblemFile, args) -> Tuple[Tree, Tree, List[str]]:
    f, I = the_poly(pf), the_ideal(pf)
    return [("determinacy", determinacy_bound(f, I))], [], []


def _cmd_locus(pf: ProblemFile, args) -> Tuple[Tree, Tree, List[str]]:
    f, I = the_poly(pf), the_ideal(pf)
    locus = positive_codim_locus(f, I)
    return [("generators", [format_poly(g) for g in locus.gens])], [], []


def _cmd_classify(pf: ProblemFile, args) -> Tuple[Tree, Tree, List[str]]:
    f = the_poly(pf)
    J = the_ideal(pf, ("J", "I"))
    out = classify_Ddk(f, J)
    return [("d", out.d), ("k", out.k), ("verdict", out.verdict)], [], []


def _seeds_from(args) -> Optional[Tuple[int, ...]]:
    if getattr(args, "seeds", None):
        try:
            return tuple(int(s) for s in args.seeds.split(","))
        except ValueError:
            raise GermforgeError("PRECONDITION_VIOLATED",
                                 "--seeds wants comma-separated integers")
    env = os.environ.get("GERMFORGE_SEED")
    if env:
        try:
            base = int(env)
        except ValueError:
            raise GermforgeError("PRECONDITION_VIOLATED",
                                 "GERMFORGE_SEED must be an integer")
        return (base, base + 2)
    return None


def _cmd_morse(pf: ProblemFile, args) -> Tuple[Tree, Tree, List[str]]:
    f, I = the_poly(pf), the_ideal(pf)
    seeds = _seeds_from(args)
    settings: Tree = [("method", args.method)]
    warnings: List[str] = []
    results: Tree = []
    if args.assume_reduced:
        warnings.append("ASSUMED_REDUCED")
    problem = GermProblem(f, I)
    jet_val = oracle_val = None
    if args.method in ("jet", "both"):
        jet_val = _morse_number(problem, "JET", assume_reduced=args.assume_reduced)
        results.append(("morse_jet", jet_val))
    if args.method in ("oracle", "both"):
        oracle_val = _morse_number(problem, "ORACLE", seeds=seeds,
                                   degree_bound=args.degree_bound)
        results.append(("morse_oracle", oracle_val))
        warnings.extend(["GLOBAL_COUNT", "GENERICITY_SAMPLED"])
    if args.method == "both":
        agree = jet_val == oracle_val
        results.append(("agree", agree))
        if not agree:
            raise GermforgeError("GENERICITY_SUSPECT",
                                 f"jet ({jet_val}) and oracle ({oracle_val}) "
                                 "Morse numbers disagree")
    if seeds is not None:
        settings.append(("seeds", ",".join(str(s) for s in seeds)))
    return results, settings, warnings


def _cmd_split(pf: ProblemFile, args) -> Tuple[Tree, Tree, List[str]]:
    f, I = the_poly(pf), the_ideal(pf)
    rep = empirical_splitting(f, I, seeds=_seeds_from(args),
                              degree_bound=args.degree_bound)
    results: Tree = []
    if rep.sigma is None:
        results.append(("sigma", "UNLOCATED"))
    else:
        results.append(("sigma", [f"{k} -> {rep.sigma[k]}"
                                  for k in sorted(rep.sigma)] or ["none"]))
    results.extend([
        ("corrected", rep.corrected),
        ("morse", rep.morse),
        ("stable", rep.stable),
    ])
    settings: Tree = [("seeds", ",".join(str(s) for s in rep.seeds))]
    return results, settings, list(rep.warnings)


def _cmd_conserve(pf: ProblemFile, args) -> Tuple[Tree, Tree, List[str]]:
    f, I = the_poly(pf), the_ideal(pf)
    trials = 3
    if "trials" in pf.options:
        try:
            trials = int(pf.options["trials"])
        except ValueError:
            raise GermforgeError("PRECONDITION_VIOLATED",
                                 "option trials wants an integer")
    conserved = conservation_check(f, I, trials=trials,
                                   assume_reduced=args.assume_reduced,
                                   degree_bound=args.degree_bound)
    warnings = ["GLOBAL_COUNT", "GENERICITY_SAMPLED"]
    if args.assume_reduced:
        warnings.insert(0, "ASSUMED_REDUCED")
    return ([("conserved", conserved), ("trials", trials)],
            [("trials", trials)], warnings)


def _cmd_hilbert(pf: ProblemFile, args) -> Tuple[Tree, Tree, List[str]]:
    I = the_ideal(pf)
    upto = args.trunc if args.trunc is not None else 5
    values = [hilbert_samuel(I, m) for m in range(upto + 1)]
    return ([("upto", upto), ("values", values)], [("trunc", upto)], [])


def _cmd_jet_dump(pf: ProblemFile, args) -> str:
    I = the_ideal(pf)
    k = args.trunc if args.trunc is not None else 1
    ctx = jet_context(I, k)
    lines = [
        f"# order-{k} jet ring of the declared ideal; J1 = critical-jet "
        "ideal, J2 = base locus",
        "ring " + " ".join(ctx.ring.names) + " ;",
        "ideal J1 = " + ", ".join(format_poly(q) for q in ctx.Q) + " ;",
        "ideal J2 = " + ", ".join(format_poly(g) for g in ctx.g_z) + " ;",
    ]
    return "\n".join(lines) + "\n"


HANDLERS = {
    "codim": _cmd_codim,
    "tangent": _cmd_tangent,
    "theta": _cmd_theta,
    "primitive": _cmd_primitive,
    "versal-check": _cmd_versal_check,
    "versal-build": _cmd_versal_build,
    "determinacy": _cmd_determinacy,
    "locus": _cmd_locus,
    "classify": _cmd_classify,
    "morse": _cmd_morse,
    "split": _cmd_split,
    "conserve": _cmd_conserve,
    "hilbert": _cmd_hilbert,
}


# ---------------------------------------------------------------------------
# argument surface


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="germforge",
        description="exact relative invariants of function germs")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="problem file, or - for stdin")
        p.add_argument("--order", choices=("ds", "dp"), default="ds",
                       help="monomial order for declared ideals")

    for name in ("codim", "versal-check", "versal-build", "determinacy",
                 "locus", "classify"):
        common(sub.add_parser(name))

    for name in ("theta", "tangent"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--theta-mode", choices=("direct", "via-subideal"),
                       default="direct")
        p.add_argument("--trunc", type=int)

    p = sub.add_parser("primitive")
    common(p)
    p.add_argument("--trunc", type=int, required=True)

    p = sub.add_parser("morse")
    common(p)
    p.add_argument("--method", choices=("jet", "oracle", "both"), default="both")
    p.add_argument("--assume-reduced", action="store_true")
    p.add_argument("--seeds")
    p.add_argument("--degree-bound", type=int)

    p = sub.add_parser("split")
    common(p)
    p.add_argument("--seeds")
    p.add_argument("--degree-bound", type=int)

    p = sub.add_parser("conserve")
    common(p)
    p.add_argument("--assume-reduced", action="store_true")
    p.add_argument("--degree-bound", type=int)

    p = sub.add_parser("hilbert")
    common(p)
    p.add_argument("--trunc", type=int)

    p = sub.add_parser("jet-dump")
    common(p)
    p.add_argument("--trunc", type=int)

    return top


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise GermforgeError("BAD_REQUEST", f"cannot read {path}: {e.strerror}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    t0 = time.monotonic()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        pf = parse_problem_file(_read_input(args.file), args.order)
        if args.command == "jet-dump":
            out = _cmd_jet_dump(pf, args)
            sys.stdout.write(out)
        else:
            results, settings, warnings = HANDLERS[args.command](pf, args)
            doc: Tree = [("command", args.command),
                         ("inputs", _inputs_tree(pf))]
            if settings:
                doc.append(("settings", settings))
            doc.append(("results", results))
            doc.append(("warnings", warnings if warnings else "none"))
            sys.stdout.write("\n".join(render_tree(doc)) + "\n")
    except (GermforgeError, AssertionError) as e:
        if isinstance(e, AssertionError):
            e = GermforgeError(INTERNAL_CODE, str(e))
        sys.stderr.write(f"error: {e}\n")
        sys.stderr.write(f"elapsed_ms={int((time.monotonic() - t0) * 1000)}\n")
        return e.exit_code
    sys.stderr.write(f"elapsed_ms={int((time.monotonic() - t0) * 1000)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
