"""Problem-file parser, command dispatcher, and structured output.

A problem file holds declarations only: one ring, then named ideals,
polynomials and unfoldings. A command consumes the declarations it needs by
name (poly `f`, ideal `I`, unfolding `F`, classify prefers ideal `J`) or,
when unambiguous, the unique declaration of that kind. Every run setting,
such as seeds, trial counts and truncations, is a command-line option read,
typed and defaulted by one table, COMMANDS. Results are printed as a single
key-value tree with stable ordering so identical inputs and seeds produce
byte-identical documents; timing goes to stderr as elapsed_ms=N.
"""

from __future__ import annotations

import os
import sys
import time
from collections import namedtuple
from collections.abc import Callable, Sequence
from types import SimpleNamespace

from .errors import INTERNAL_CODE, GermforgeError, ParseError
from .invariants import (
    GermProblem,
    Unfolding,
    build_versal_unfolding,
    classify_Ddk,
    determinacy_bound,
    positive_codim_locus,
    versality_check,
)
from .jetmorse import jet_context, jet_morse_number
from .oracle import SAMPLED, conservation_check, splitting
from .polyring import GLOBAL_DP, LOCAL_DS, Poly, Ring, format_poly, parse_poly
from .stdbasis import Ideal, Submodule, hilbert_samuel_values
from .tangent import primitive_ideal, tangent_ideal, theta_preserving

# ---------------------------------------------------------------------------
# problem files


# SHA-256 (FIPS 180-4) of a short text. hashlib would load OpenSSL, a few
# milliseconds and about 2 MB of memory per process, to hash one small file.
_SHA256_K = (
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
)
_SHA256_H0 = (0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19)


def _sha256_hex(data: bytes) -> str:
    """Hex SHA-256 of data; rotations leave bits above 32 that each sum's
    final mask drops."""
    mask = 0xFFFFFFFF
    size = len(data)
    data += b"\x80" + b"\x00" * ((55 - size) % 64) + (8 * size).to_bytes(8, "big")
    h = list(_SHA256_H0)
    for start in range(0, len(data), 64):
        w = [int.from_bytes(data[i:i + 4], "big") for i in range(start, start + 64, 4)]
        for t in range(16, 64):
            x, y = w[t - 15], w[t - 2]
            s0 = (x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ x >> 3
            s1 = (y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ y >> 10
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & mask)
        a, b, c, d, e, f, g, k = h
        for t in range(64):
            s1 = (e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)
            t1 = k + s1 + ((e & f) ^ (~e & g)) + _SHA256_K[t] + w[t]
            s0 = (a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)
            t2 = s0 + ((a & b) ^ (a & c) ^ (b & c))
            a, b, c, d, e, f, g, k = (t1 + t2) & mask, a, b, c, (d + t1) & mask, e, f, g
        h = [(u + v) & mask for u, v in zip(h, (a, b, c, d, e, f, g, k))]
    return "".join(f"{u:08x}" for u in h)


class ProblemFile(namedtuple("ProblemFile",
                             "text ring order_name ideals polys unfoldings")):
    __slots__ = ()

    def digest(self) -> str:
        return f"sha256:{_sha256_hex(self.text.encode())[:16]}"


def _strip_comments(text: str) -> str:
    return "\n".join(line.partition("#")[0] for line in text.split("\n"))


def _statements(text: str) -> list[tuple[str, int, int]]:
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


def _check_name(name: str, what: str, line: int, col: int) -> None:
    """A ring variable or parameter must be one identifier as the polynomial
    tokenizer reads it: a letter, then letters, digits or underscores."""
    if not (name[:1].isalpha() and name.replace("_", "a").isalnum()):
        raise ParseError(f"{what} {name!r} is not an identifier", line, col)


def parse_problem_file(text: str, order_name: str = "ds") -> ProblemFile:
    order = LOCAL_DS if order_name == "ds" else GLOBAL_DP
    ring: Ring | None = None
    ideals: dict[str, Ideal] = {}
    polys: dict[str, Poly] = {}
    unfoldings: dict[str, Poly] = {}
    used_names: set = set()

    def claim(name: str, line: int, col: int) -> None:
        if name in used_names:
            raise ParseError(f"name {name!r} is already defined", line, col)
        used_names.add(name)

    for body, line, col in _statements(_strip_comments(text)):
        words = body.split()
        kind = words[0] if words else ""
        head, eq, expr = body.partition("=")
        parts = head.split()
        if kind == "ring":
            if ring is not None:
                raise ParseError("ring declared twice", line, col)
            if len(words) < 2:
                raise ParseError("ring needs at least one variable", line, col)
            names = words[1:]
            if len(set(names)) != len(names):
                raise ParseError("repeated ring variable", line, col)
            for name in names:
                _check_name(name, "ring variable", line, col)
            ring = Ring(names)
            used_names.update(names)
            continue
        if ring is None:
            raise ParseError("the ring must be declared first", line, col)
        if kind == "ideal":
            if len(parts) != 2 or not eq:
                raise ParseError("expected: ideal name = expr, expr", line, col)
            name = parts[1]
            claim(name, line, col)
            gens = [_parse_expr(piece, ring, f"ideal {name}", line, col)
                    for piece in expr.split(",")]
            ideals[name] = Ideal(ring, gens, order)
            continue
        if kind == "poly":
            if len(parts) != 2 or not eq:
                raise ParseError("expected: poly name = expr", line, col)
            name = parts[1]
            claim(name, line, col)
            polys[name] = _parse_expr(expr, ring, f"poly {name}", line, col)
            continue
        if kind == "unfolding":
            if len(parts) < 4 or parts[2] != "params" or not eq:
                raise ParseError("expected: unfolding name params p1 .. = expr",
                                 line, col)
            name = parts[1]
            params = parts[3:]
            claim(name, line, col)
            for p in params:
                _check_name(p, "parameter", line, col)
                claim(p, line, col)
            unfoldings[name] = _parse_expr(expr, ring.extend(params), f"unfolding {name}",
                                           line, col)
            continue
        raise ParseError(f"unknown statement {kind!r}", line, col)
    if ring is None:
        raise ParseError("no ring declaration", 1, 1)
    return ProblemFile(text, ring, order_name, ideals, polys, unfoldings)


# ---------------------------------------------------------------------------
# declaration lookup


def _pick(table: dict[str, object], preferred: Sequence[str], kind: str):
    for name in preferred:
        if name in table:
            return name, table[name]
    if len(table) == 1:
        return next(iter(table.items()))
    have = ", ".join(table) if table else "none"
    raise GermforgeError(
        "BAD_REQUEST",
        f"cannot choose {kind}: need one named {preferred[0]!r} or a unique "
        f"declaration (have: {have})")


def the_poly(pf: ProblemFile) -> Poly:
    return _pick(pf.polys, ("f",), "a poly")[1]


def the_ideal(pf: ProblemFile, preferred: Sequence[str] = ("I",)) -> Ideal:
    return _pick(pf.ideals, preferred, "an ideal")[1]


def the_unfolding(pf: ProblemFile) -> Poly:
    return _pick(pf.unfoldings, ("F",), "an unfolding")[1]


# ---------------------------------------------------------------------------
# document rendering

Tree = list[tuple[str, object]]  # a value: str, int, bool, a list of scalars or a Tree


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def render_tree(pairs: Tree, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    for key, val in pairs:
        if not isinstance(val, list):
            lines.append(f"{pad}{key}: {_fmt_scalar(val)}")
        elif not val:
            lines.append(f"{pad}{key}: none")
        elif isinstance(val[0], tuple):
            lines.append(f"{pad}{key}:")
            lines.extend(render_tree(val, indent + 1))
        else:
            lines.append(f"{pad}{key}:")
            for item in val:
                lines.append(f"{pad}  - {_fmt_scalar(item)}")
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
    for name, F in pf.unfoldings.items():
        tree.append((f"unfolding {name}",
                     f"params {' '.join(F.ring.names[pf.ring.n:])} = {format_poly(F)}"))
    return tree


# ---------------------------------------------------------------------------
# command handlers: each returns (results tree, settings tree, warnings), or
# the text it prints


def _cmd_codim(pf: ProblemFile, args) -> tuple[Tree, Tree, list[str]]:
    P = GermProblem(the_poly(pf), the_ideal(pf))
    results: Tree = [
        ("c_ext", str(P.c_ext)),
        ("c_plain", str(P.c_plain)),
    ]
    if P.c_ext.is_finite:
        results.append(("determinacy", P.determinacy))
    if P.cobasis:
        results.append(("basis", [format_poly(p) for p in P.cobasis]))
    return results, [], []


def _theta_for(pf: ProblemFile, args) -> tuple[Submodule, Ideal, Tree, list[str]]:
    """The vector-field module and membership ideal selected by --theta-mode.
    The context is the primitive ideal at --trunc when one is given, else the
    declared ideal; via-subideal, which needs --trunc, takes theta of the
    declared ideal as the subideal, direct takes it of the context."""
    declared = the_ideal(pf)
    mode, trunc = args.theta_mode, args.trunc
    if trunc is None:
        if mode == "via-subideal":
            raise GermforgeError("PRECONDITION_VIOLATED",
                                 "--theta-mode via-subideal needs --trunc")
        return theta_preserving(declared), declared, [("theta-mode", mode)], []
    context = primitive_ideal(declared, trunc).ideal
    theta = theta_preserving(declared if mode == "via-subideal" else context)
    return theta, context, [("theta-mode", mode), ("trunc", trunc)], ["TRUNCATED"]


def _cmd_theta(pf: ProblemFile, args) -> tuple[Tree, Tree, list[str]]:
    theta, _, settings, warnings = _theta_for(pf, args)
    rows = []
    for vec in theta.gens:
        rows.append("(" + ", ".join(format_poly(c) for c in vec) + ")")
    return [("mode", "preserving"), ("generators", rows)], settings, warnings


def _cmd_tangent(pf: ProblemFile, args) -> tuple[Tree, Tree, list[str]]:
    f = the_poly(pf)
    theta, context, settings, warnings = _theta_for(pf, args)
    tau = tangent_ideal(f, theta)
    results: Tree = [
        ("generators", [format_poly(g) for g in tau.gens]),
        ("context_ideal", ", ".join(format_poly(g) for g in context.gens)),
    ]
    return results, settings, warnings


def _cmd_primitive(pf: ProblemFile, args) -> tuple[Tree, Tree, list[str]]:
    if args.trunc is None:
        raise GermforgeError("PRECONDITION_VIOLATED", "primitive needs --trunc")
    I = the_ideal(pf)
    prim = primitive_ideal(I, args.trunc)
    results: Tree = [
        ("generators", [format_poly(g) for g in prim.ideal.gens]),
        ("truncation", prim.truncation),
    ]
    return results, [("trunc", args.trunc)], ["TRUNCATED"]


def _cmd_versal_check(pf: ProblemFile, args) -> tuple[Tree, Tree, list[str]]:
    f, I = the_poly(pf), the_ideal(pf)
    return [("versal", versality_check(Unfolding(f, the_unfolding(pf)), I))], [], []


def _cmd_versal_build(pf: ProblemFile, args) -> tuple[Tree, Tree, list[str]]:
    f, I = the_poly(pf), the_ideal(pf)
    U = build_versal_unfolding(f, I)
    results: Tree = [
        ("params", list(U.params)),
        ("F", format_poly(U.F)),
    ]
    return results, [], []


def _cmd_determinacy(pf: ProblemFile, args) -> tuple[Tree, Tree, list[str]]:
    f, I = the_poly(pf), the_ideal(pf)
    return [("determinacy", determinacy_bound(f, I))], [], []


def _cmd_locus(pf: ProblemFile, args) -> tuple[Tree, Tree, list[str]]:
    f, I = the_poly(pf), the_ideal(pf)
    locus = positive_codim_locus(f, I)
    return [("generators", [format_poly(g) for g in locus.gens])], [], []


def _cmd_classify(pf: ProblemFile, args) -> tuple[Tree, Tree, list[str]]:
    f = the_poly(pf)
    J = the_ideal(pf, ("J", "I"))
    out = classify_Ddk(f, J)
    return [("d", out.d), ("k", out.k), ("verdict", out.verdict)], [], []


def _degree_bound_from(args) -> int | None:
    """--degree-bound, which must be nonnegative: below 0 no cobasis element
    passes it, so the germ would never be deformed."""
    if args.degree_bound is not None and args.degree_bound < 0:
        raise GermforgeError("PRECONDITION_VIOLATED", "--degree-bound must be >= 0")
    return args.degree_bound


def _cmd_morse(pf: ProblemFile, args) -> tuple[Tree, Tree, list[str]]:
    f, I = the_poly(pf), the_ideal(pf)
    degree_bound = _degree_bound_from(args)
    settings: Tree = [("method", args.method)]
    warnings: list[str] = []
    results: Tree = []
    if args.assume_reduced:
        warnings.append("ASSUMED_REDUCED")
    problem = GermProblem(f, I)
    problem.finite_codim("the Morse number needs finite extended codimension")
    jet_val = oracle_val = None
    if args.method in ("jet", "both"):
        jet_val = jet_morse_number(problem, args.assume_reduced)[2]
        results.append(("morse_jet", jet_val))
    if args.method in ("oracle", "both"):
        oracle_val = splitting(problem, args.seeds, degree_bound).morse
        results.append(("morse_oracle", oracle_val))
        warnings.extend(SAMPLED)
    if args.method == "both":
        agree = jet_val == oracle_val
        results.append(("agree", agree))
        if not agree:
            raise GermforgeError("GENERICITY_SUSPECT",
                                 f"jet ({jet_val}) and oracle ({oracle_val}) "
                                 "Morse numbers disagree")
    if args.seeds is not None:
        settings.append(("seeds", ",".join(str(s) for s in args.seeds)))
    return results, settings, warnings


def _cmd_split(pf: ProblemFile, args) -> tuple[Tree, Tree, list[str]]:
    f, I = the_poly(pf), the_ideal(pf)
    rep = splitting(GermProblem(f, I), args.seeds, _degree_bound_from(args))
    results: Tree = [
        ("sigma", [f"{k} -> {rep.sigma[k]}" for k in sorted(rep.sigma)]),
        ("corrected", rep.corrected),
        ("morse", rep.morse),
        ("stable", rep.stable),
    ]
    settings: Tree = [("seeds", ",".join(str(s) for s in rep.seeds))]
    return results, settings, list(rep.warnings)


def _cmd_conserve(pf: ProblemFile, args) -> tuple[Tree, Tree, list[str]]:
    f, I = the_poly(pf), the_ideal(pf)
    conserved = conservation_check(f, I, trials=args.trials,
                                   assume_reduced=args.assume_reduced,
                                   degree_bound=_degree_bound_from(args))
    warnings = list(SAMPLED)
    if args.assume_reduced:
        warnings.insert(0, "ASSUMED_REDUCED")
    return ([("conserved", conserved), ("trials", args.trials)],
            [("trials", args.trials)], warnings)


def _cmd_hilbert(pf: ProblemFile, args) -> tuple[Tree, Tree, list[str]]:
    I = the_ideal(pf)
    if args.trunc < 0:
        raise GermforgeError("PRECONDITION_VIOLATED", "truncation degree must be >= 0")
    values = hilbert_samuel_values(I, args.trunc)
    return ([("upto", args.trunc), ("values", values)], [("trunc", args.trunc)], [])


def _cmd_jet_dump(pf: ProblemFile, args) -> str:
    I = the_ideal(pf)
    k = args.trunc
    ctx = jet_context(I, k)
    lines = [
        f"# order-{k} jet ring of the declared ideal; J1 = critical-jet "
        "ideal, J2 = base locus",
        "ring " + " ".join(ctx.ring.names) + " ;",
        "ideal J1 = " + ", ".join(format_poly(q) for q in ctx.Q) + " ;",
        "ideal J2 = " + ", ".join(format_poly(g) for g in ctx.g_z) + " ;",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument surface

# option -> (kind, default, help); a kind is a tuple of choices, int, list
# for comma-separated integers (read as a tuple), or bool for a flag. The
# value lands on the attribute named after the option, --degree-bound on
# args.degree_bound.
Option = tuple[object, object, str]
_ORDER: dict[str, Option] = {
    "--order": (("ds", "dp"), "ds", "monomial order for declared ideals")}
_TRUNC: dict[str, Option] = {"--trunc": (int, None, "truncation degree")}
_THETA: dict[str, Option] = {
    "--theta-mode": (("direct", "via-subideal"), "direct", "vector fields to use"),
    **_TRUNC}
_SEEDS: dict[str, Option] = {"--seeds": (list, None, "comma-separated integer seeds")}
_BOUND: dict[str, Option] = {
    "--degree-bound": (int, None, "highest cobasis degree in the deformation")}
_REDUCED: dict[str, Option] = {
    "--assume-reduced": (bool, False, "take the critical-jet ideal as radical")}

# each command's handler and its options besides --order, in the order of
# the usage text; a handler returns the (results, settings, warnings) of its
# document, or the text it prints (jet-dump)
COMMANDS: dict[str, tuple[Callable, dict[str, Option]]] = {
    "codim": (_cmd_codim, {}),
    "versal-check": (_cmd_versal_check, {}),
    "versal-build": (_cmd_versal_build, {}),
    "determinacy": (_cmd_determinacy, {}),
    "locus": (_cmd_locus, {}),
    "classify": (_cmd_classify, {}),
    "theta": (_cmd_theta, _THETA),
    "tangent": (_cmd_tangent, _THETA),
    "primitive": (_cmd_primitive, _TRUNC),
    "morse": (_cmd_morse, {"--method": (("jet", "oracle", "both"), "both", "which Morse count"),
                           **_REDUCED, **_SEEDS, **_BOUND}),
    "split": (_cmd_split, {**_SEEDS, **_BOUND}),
    "conserve": (_cmd_conserve, {**_REDUCED, **_BOUND,
                                 "--trials": (int, 3, "sampled deformations, 1 to 8")}),
    "hilbert": (_cmd_hilbert, {"--trunc": (int, 5, "truncation degree")}),
    "jet-dump": (_cmd_jet_dump, {"--trunc": (int, 1, "jet order")}),
}


def _bad(message: str) -> GermforgeError:
    return GermforgeError("BAD_REQUEST", f"{message} (see germforge -h)")


def _option_usage(name: str, kind) -> str:
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(kind)}}}"
    return name if kind is bool else f"{name} {'N' if kind is int else 'N,N,...'}"


def usage(command: str | None = None) -> str:
    """The help text of one command, or of all of them, read off COMMANDS."""
    if command is None:
        lines = ["usage: germforge COMMAND FILE [OPTIONS]", "",
                 "exact relative invariants of function germs", "",
                 "FILE is a problem file, or - for stdin; options go before or after it,",
                 "as --opt value or --opt=value. Every command takes --order {ds,dp}.",
                 "commands:"]
        for name, (_, options) in COMMANDS.items():
            shown = " ".join(f"[{_option_usage(opt, kind)}]"
                             for opt, (kind, _, _) in options.items())
            lines.append(f"  {name:<13} {shown}".rstrip())
        lines.append("germforge COMMAND -h describes the options of a command")
        return "\n".join(lines) + "\n"
    lines = [f"usage: germforge {command} FILE [OPTIONS]", "",
             "FILE is a problem file, or - for stdin. options:"]
    for opt, (kind, default, text) in {**_ORDER, **COMMANDS[command][1]}.items():
        if default is not None and kind is not bool:
            text += f" (default {default})"
        lines.append(f"  {_option_usage(opt, kind):<36} {text}")
    return "\n".join(lines) + "\n"


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command, file and options of argv, unset options at their
    defaults; BAD_REQUEST for anything that is not a command, one file and
    that command's options."""
    if not argv:
        raise _bad("missing the command")
    command, rest = argv[0], iter(argv[1:])
    if command not in COMMANDS:
        raise _bad(f"unknown command {command!r}")
    table = {**_ORDER, **COMMANDS[command][1]}
    values = {opt: default for opt, (_, default, _) in table.items()}
    files = []
    for word in rest:
        if word == "-" or not word.startswith("-"):
            files.append(word)
            continue
        opt, eq, value = word.partition("=")
        if opt not in table:
            raise _bad(f"{command} has no option {opt!r}")
        kind = table[opt][0]
        if kind is bool:
            if eq:
                raise _bad(f"{opt} takes no value")
            value = True
        else:
            if not eq:
                value = next(rest, None)
                if value is None:
                    raise _bad(f"{opt} needs a value")
            if isinstance(kind, tuple):
                if value not in kind:
                    raise _bad(f"{opt} must be one of {', '.join(kind)}, not {value!r}")
            elif kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise _bad(f"{opt} wants an integer, not {value!r}")
            else:
                try:
                    value = tuple(int(s) for s in value.split(","))
                except ValueError:
                    raise _bad(f"{opt} wants comma-separated integers, not {value!r}")
        values[opt] = value
    if len(files) != 1:
        raise _bad(f"{command} takes one problem file, not {len(files)}")
    return SimpleNamespace(command=command, file=files[0],
                           **{opt[2:].replace("-", "_"): v for opt, v in values.items()})


def _read_input(path: str) -> str:
    """A file's bytes, or stdin's for '-', as UTF-8 with universal newlines."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except OSError as e:
        raise GermforgeError("BAD_REQUEST", f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError:
        raise GermforgeError("BAD_REQUEST", f"cannot read {path}: not UTF-8 text")


def _unwritable(e: OSError) -> GermforgeError:
    return GermforgeError("BAD_REQUEST", f"cannot write output: {e.strerror}")


def _write(text: str) -> None:
    """The whole of stdout, written and flushed, so that a stdout which
    cannot be written fails here and nowhere later."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as e:
        raise _unwritable(e)


def _report(line: str) -> None:
    """One line to stderr. A stderr that cannot be written is ignored: the
    exit status is then the only report."""
    try:
        sys.stderr.write(line + "\n")
    except OSError:
        pass


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command. polyring.MAX_DIGITS is its only digit limit: the
    interpreter's own int/str limit, where it has one, is lifted meanwhile."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    t0 = time.monotonic()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if "-h" in argv or "--help" in argv:
            _write(usage(argv[0] if argv[0] in COMMANDS else None))
            return 0
        args = parse_args(argv)
        pf = parse_problem_file(_read_input(args.file), args.order)
        out = COMMANDS[args.command][0](pf, args)
        if not isinstance(out, str):
            results, settings, warnings = out
            doc: Tree = [("command", args.command),
                         ("inputs", _inputs_tree(pf))]
            if settings:
                doc.append(("settings", settings))
            doc.append(("results", results))
            doc.append(("warnings", warnings))
            out = "\n".join(render_tree(doc)) + "\n"
        _write(out)
    except (GermforgeError, AssertionError) as e:
        if isinstance(e, AssertionError):
            e = GermforgeError(INTERNAL_CODE, str(e))
        _report(f"error: {e}")
        _report(f"elapsed_ms={int((time.monotonic() - t0) * 1000)}")
        return e.exit_code
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    _report(f"elapsed_ms={int((time.monotonic() - t0) * 1000)}")
    return 0


def run() -> None:
    """Entry point of `python -m germforge.cli` and the `germforge` script:
    main(), which has flushed stdout, then stderr flushed and os._exit,
    which skips the interpreter's teardown (freeing every module and
    object), a sizeable share of a short command's wall time. An exception
    from main() propagates as usual."""
    code = main()
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
