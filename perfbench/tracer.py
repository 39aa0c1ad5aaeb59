"""Run one germforge CLI command with a span around every call into a layer.

    python tracer.py SPANFILE COMMAND ARGS...

behaves like ``python -m germforge.cli COMMAND ARGS...`` (same stdout, same
exit status) and also writes the spans of the run to SPANFILE as JSON:
``{"layers": [name, ...], "spans": [[layer, parent, start, end, info], ...]}``.
``layer`` indexes ``layers``; ``parent`` is the index of the enclosing span or
-1; ``start`` and ``end`` are ``time.perf_counter`` readings; ``info`` is the
layer's probe value or null.  Spans stay in memory until the command ends and
are written once.  A process killed on timeout writes nothing.

The spans are recorded from outside the package: each wrapped function is
rebound in every ``germforge.*`` namespace that holds it, because names such
as ``invariants.theta_preserving`` are bound by ``from ... import``, and
methods are patched on their class.  ``polyring`` gets no spans: ``split d3``
makes about 500k ``Poly`` operations, so wrapping them would time the tracer;
their cost shows as self time of the layers that call them.  ``koszul`` gets
none either: no CLI command reaches it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer name -> (module, target or tuple of targets); a target is a
# function, or Class.method for a method patched on its class
LAYERS = {
    "cli.parse": ("germforge.cli", "parse_problem_file"),
    "invariants.c_ext": ("germforge.invariants", "extended_codim"),
    "invariants.c_plain": ("germforge.invariants", "plain_codim"),
    "invariants.determinacy": ("germforge.invariants", "determinacy_bound"),
    "invariants.versality": ("germforge.invariants", "versality_check"),
    "invariants.locus": ("germforge.invariants", "positive_codim_locus"),
    "tangent.theta": ("germforge.tangent", "theta_preserving"),
    "tangent.theta_vanishing": ("germforge.tangent", "theta_vanishing"),
    "tangent.tau": ("germforge.tangent", "tangent_ideal"),
    "tangent.primitive": ("germforge.tangent", "primitive_ideal"),
    "jetmorse.context": ("germforge.jetmorse", "jet_context"),
    "jetmorse.component": ("germforge.jetmorse", "morse_component"),
    "jetmorse.pullback": ("germforge.jetmorse", "jet_pullback"),
    "jetmorse.multiplicity": ("germforge.jetmorse", "intersection_multiplicity"),
    "jetmorse.lift": ("germforge.jetmorse", "lift_germ"),
    "oracle.deform": ("germforge.oracle", "random_deformation"),
    "oracle.corrected": ("germforge.oracle", "corrected_extended_codim"),
    "oracle.critical": ("germforge.oracle", "critical_points_outside"),
    "oracle.locate": ("germforge.oracle", "locate_rational_points"),
    "oracle.conserve": ("germforge.oracle", "conservation_check"),
    "stdbasis.basis": ("germforge.stdbasis", "std_basis_vectors"),
    "stdbasis.reduce_global": ("germforge.stdbasis", "reduce_vector_global"),
    "stdbasis.qdim": ("germforge.stdbasis", "Submodule.quotient_dimension"),
    "stdbasis.syzygies": ("germforge.stdbasis", "module_syzygies"),
    "stdbasis.preimage": ("germforge.stdbasis", "subideal_preimage"),
    "stdbasis.quotient": ("germforge.stdbasis", "ideal_quotient"),
    "stdbasis.saturation": ("germforge.stdbasis", "saturation"),
    "stdbasis.lift": ("germforge.stdbasis", "Ideal.lift"),
    "stdbasis.radical": ("germforge.stdbasis", "zero_dim_radical"),
    "linalg.nullspace": ("germforge.linalg", "nullspace"),
    "linalg.rowbasis": ("germforge.linalg", ("RowBasis.reduce", "RowBasis.add",
                                             "RowBasis.contains", "RowBasis.extend")),
}


def _is_zero_vector(vec) -> bool:
    return all(p.is_zero() for p in vec)


def _coeff_bits(vectors) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for vec in vectors for p in vec for c in p.terms.values()),
               default=0)


def _qdim_before(args):
    """None for a global order; else whether the cached basis is unset."""
    module = args[0]
    return module._basis is None if module.order.is_local else None


# layer name -> (before(args), after(args, result, before)) giving a span's info
PROBES = {
    "stdbasis.reduce_global": (
        None, lambda args, result, _: int(_is_zero_vector(result))),
    "stdbasis.basis": (
        None, lambda args, result, _: [len(result), _coeff_bits(result)]),
    # 1 when the call had to run the full basis (the truncated-elimination
    # shortcut gave no certificate), 0 for other local-order calls
    "stdbasis.qdim": (
        _qdim_before,
        lambda args, result, empty: None if empty is None
        else int(empty and args[0]._basis is not None)),
}


class Recorder:
    """In-memory span list with the stack of open spans."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack = [-1]

    def wrap(self, layer: int, fn, probe=(None, None)):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        before, after = probe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            rec = [layer, stack[-1], 0.0, 0.0, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after:
                rec[4] = after(args, result, state)
            return result

        return traced

    def install(self) -> None:
        packages = [m for name, m in sys.modules.items()
                    if m is not None and (name == "germforge"
                                          or name.startswith("germforge."))]
        for layer, (name, (modname, targets)) in enumerate(LAYERS.items()):
            module = importlib.import_module(modname)
            for target in (targets if isinstance(targets, tuple) else (targets,)):
                probe = PROBES.get(name, (None, None))
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self.wrap(layer, cls.__dict__[meth], probe))
                    continue
                fn = getattr(module, target)
                traced = self.wrap(layer, fn, probe)
                for pkg in packages:
                    for attr, value in list(vars(pkg).items()):
                        if value is fn:
                            setattr(pkg, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": list(LAYERS), "spans": self.spans}, fh)


def main(argv) -> int:
    span_path, cli_args = argv[0], argv[1:]
    import germforge.cli as cli

    recorder = Recorder()
    recorder.install()
    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(span_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
