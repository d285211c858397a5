"""Human-readable textual dump of HPVM-HDC IR.

The printer is used by tests, examples and by developers inspecting what a
transform did to a program: one ``func`` block per traced function, one
line per operation, and a stage's body named by its ``impl`` attribute.
"""

from __future__ import annotations

import io

from repro.hdcpp.program import Operation, Program, TracedFunction, Value

__all__ = ["print_program"]


def format_operation(op: Operation) -> str:
    """Render one operation as a single line of IR text."""
    parts = []
    if op.result is not None:
        parts.append(f"%{op.result.name}: {op.result.type} = ")
    parts.append(str(op.opcode))
    operand_text = ", ".join(f"%{v.name}" for v in op.operands)
    parts.append(f"({operand_text})")
    callable_attrs = ("impl_callable", "init_fn", "batch_impl")
    # A value attribute (the plan's ``signed_by`` / ``fused_with``) shows
    # by SSA name, like an operand.
    attrs = {
        k: (f"%{v.name}" if isinstance(v, Value) else v if isinstance(v, str) else getattr(v, "name", v))
        for k, v in op.attrs.items()
        if k not in callable_attrs
    }
    for hidden in callable_attrs:
        if hidden in op.attrs:
            attrs[hidden] = f"<callable {getattr(op.attrs[hidden], '__name__', 'fn')}>"
    if attrs:
        parts.append(" " + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())))
    return "".join(parts)


def _print_function(fn: TracedFunction, out: io.StringIO, indent: str) -> None:
    params = ", ".join(f"%{p.name}: {p.type}" for p in fn.params)
    results = ", ".join(str(r.type) for r in fn.results) or "void"
    out.write(f"{indent}func @{fn.name}({params}) -> {results} {{\n")
    for op in fn.ops:
        out.write(f"{indent}  {format_operation(op)}\n")
    if fn.results:
        returned = ", ".join(f"%{r.name}" for r in fn.results)
        out.write(f"{indent}  return {returned}\n")
    out.write(f"{indent}}}\n")


def print_program(program: Program) -> str:
    """Render every traced function of a program."""
    out = io.StringIO()
    out.write(f"program @{program.name}\n")
    for fn in program.functions.values():
        marker = "  // entry\n" if fn.name == program.entry_name else ""
        out.write(marker)
        _print_function(fn, out, "  ")
    return out.getvalue()
