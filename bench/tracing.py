"""Per-layer spans for the traced benchmark pass.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces each public function of a ``capelli`` layer with a timing wrapper
in every module that bound it (``from .polynomials import solve_exact``
makes ``capelli.elements.solve_exact`` a second binding of the same
function), and each wrapped method on its class.  A call opens a span only
when it crosses into a group from a different one, so recursion and calls
inside one layer are counted once, at the boundary.

Self time of a span is its duration minus the durations of the spans it
caused.  Spans are aggregated in memory by their path of groups (for
example ``elements.assembly/elements.column/enveloping.pbw_mul``) and
handed to the caller at the end of the pass.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

MARK = "__bench_wrapped__"

# group -> (defining module, public function names)
FUNCTIONS = {
    "tableaux": (
        "capelli.tableaux",
        (
            "check_partition",
            "conjugate",
            "hook_number",
            "partitions_of",
            "enumerate_standard",
            "enumerate_row_strict",
            "column_permuted_family",
            "compositions",
            "permutation_sign",
            "cycle_type",
        ),
    ),
    "characters": (
        "capelli.characters",
        ("character_std", "character", "character_on_cycle_type", "dim_irrep"),
    ),
    "enveloping.sum": ("capelli.enveloping", ("element_sum",)),
    "polynomials.solve": ("capelli.polynomials", ("solve_exact", "rank_exact")),
    "polynomials.bitableau": (
        "capelli.polynomials",
        (
            "bitableau",
            "biproduct",
            "column_bitableau",
            "column_monomial",
            "expand_into_columns",
            "right_symmetrized",
            "right_symmetrized_via_symmetrizer",
            "immanant",
        ),
    ),
    "polynomials.straighten": (
        "capelli.polynomials",
        ("straighten", "gc_coordinates", "standard_pairs"),
    ),
    "polynomials.act": ("capelli.polynomials", ("act_ugl", "act_generator")),
    "polynomials.diff_op": (
        "capelli.polynomials",
        ("act_column_capelli_diff", "act_higher_capelli", "imm_operator"),
    ),
    "polynomials.mpoly": ("capelli.polynomials", ("poly_sum",)),
    "elements.column": (
        "capelli.elements",
        ("column_capelli", "column_capelli_alt", "column_capelli_literal"),
    ),
    "elements.assembly": (
        "capelli.elements",
        (
            "capelli_bitableau",
            "young_capelli",
            "double_young_capelli",
            "capelli_immanant",
            "quantum_immanant",
            "schur_element",
            "schur_element_dyc",
            "capelli_determinant",
            "koszul_inverse",
        ),
    ),
    "elements.expansion": (
        "capelli.elements",
        ("standard_capelli_expansion", "koszul_map", "young_capelli_basis"),
    ),
    "cli.main": ("capelli.cli", ("main",)),
}

# group -> (defining module, class, method names); UglElement.__mul__ is
# split between pbw_mul and scale by the type of its argument.
METHODS = {
    "enveloping.sum": ("capelli.enveloping", "UglElement", ("__add__", "__sub__", "__neg__")),
    "enveloping.scale": ("capelli.enveloping", "UglElement", ("__rmul__", "__truediv__")),
    "enveloping.render": ("capelli.enveloping", "UglElement", ("text", "to_json", "from_json")),
    "polynomials.mpoly": (
        "capelli.polynomials",
        "MPoly",
        (
            "__add__",
            "__sub__",
            "__neg__",
            "__mul__",
            "__rmul__",
            "__truediv__",
            "diff",
            "variable",
            "monomial",
        ),
    ),
}

GROUPS = tuple(dict.fromkeys([*FUNCTIONS, *METHODS, "enveloping.pbw_mul"]))
COUNTERS = (
    "enveloping.pbw_mul.pairs_in",
    "enveloping.pbw_mul.terms_out",
    "enveloping.sum.terms_in",
    "polynomials.solve.cells",
    "elements.column.memo_lookups",
    "elements.column.memo_hits",
    "elements.expansion.basis_elems",
)
MAXIMA = ("polynomials.solve.max_rows", "polynomials.solve.max_cols")


def capelli_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "capelli" or name.startswith("capelli."))
    ]


def installed_wrappers() -> list[str]:
    """Names of every wrapped function or method now bound in capelli."""
    found = []
    for module in capelli_modules():
        for name, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if getattr(getattr(member, "__func__", member), MARK, False):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found


class Tracer:
    """Span stack, per-group totals and the aggregated span tree."""

    def __init__(self) -> None:
        self.active = False
        self.stack: list[list] = []  # [group, path, start, child seconds]
        self.calls: dict[str, int] = dict.fromkeys(GROUPS, 0)
        self.self_s: dict[str, float] = dict.fromkeys(GROUPS, 0.0)
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.maxima: dict[str, int] = dict.fromkeys(MAXIMA, 0)
        self.paths: dict[str, list] = {}  # path -> [spans, total s, self s]
        self.spanned_s = 0.0  # time covered by top-level spans

    def top_group(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def wrap(self, group: str, fn, before=None, after=None):
        """Time ``fn`` as a span of ``group`` when it is called from outside
        the group while the tracer is active.  ``before(args)`` runs before
        the span opens and its value reaches ``after(args, result, value)``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not tracer.active or (stack and stack[-1][0] == group):
                return fn(*args, **kwargs)
            token = before(args) if before else None
            path = f"{stack[-1][1]}/{group}" if stack else group
            frame = [group, path, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer._close(frame, perf_counter())
            if after:
                after(args, result, token)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _close(self, frame: list, end: float) -> None:
        group, path, start, child = frame
        duration = end - start
        own = duration - child
        self.calls[group] += 1
        self.self_s[group] += own
        node = self.paths.get(path)
        if node is None:
            node = self.paths[path] = [0, 0.0, 0.0]
        node[0] += 1
        node[1] += duration
        node[2] += own
        if self.stack:
            self.stack[-1][3] += duration
        else:
            self.spanned_s += duration

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def record_max(self, name: str, value: int) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value


def install(tracer: Tracer) -> None:
    """Wrap every layer function and method listed above."""
    import capelli.cli  # noqa: F401  (the cli binds names of every layer)
    import capelli.elements as elements
    from capelli.enveloping import UglElement

    hooks = _hooks(tracer, elements, UglElement)
    modules = capelli_modules()
    for group, (module_name, names) in FUNCTIONS.items():
        home = sys.modules[module_name]
        for name in names:
            original = getattr(home, name)
            before, after = hooks.get(name, (None, None))
            timed = _counting_sum(tracer, original) if name == "element_sum" else original
            wrapped = tracer.wrap(group, timed, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    for group, (module_name, class_name, names) in METHODS.items():
        cls = getattr(sys.modules[module_name], class_name)
        for name in names:
            member = vars(cls)[name]
            before, after = hooks.get(f"{class_name}.{name}", (None, None))
            if isinstance(member, classmethod):
                wrapped = classmethod(tracer.wrap(group, member.__func__, before, after))
            else:
                wrapped = tracer.wrap(group, member, before, after)
            setattr(cls, name, wrapped)
    mul = vars(UglElement)["__mul__"]
    pbw = tracer.wrap("enveloping.pbw_mul", mul, after=hooks["pbw_mul"][1])
    scale = tracer.wrap("enveloping.scale", mul)

    def dispatch(self, other):
        return (pbw if isinstance(other, UglElement) else scale)(self, other)

    setattr(dispatch, MARK, True)
    UglElement.__mul__ = functools.wraps(mul)(dispatch)


def _counting_sum(tracer: Tracer, element_sum):
    """element_sum taking its (often lazy) input through a term counter."""

    def counted(elements):
        for elem in elements:
            tracer.count("enveloping.sum.terms_in", len(elem.terms))
            yield elem

    @functools.wraps(element_sum)
    def summed(n, elements):
        return element_sum(n, counted(elements))

    return summed


def _hooks(tracer: Tracer, elements, UglElement) -> dict:
    memo = elements._column_memo

    def pbw_after(args, result, _):
        pairs = len(args[0].terms) * len(args[1].terms)
        tracer.count("enveloping.pbw_mul.pairs_in", pairs)
        tracer.count("enveloping.pbw_mul.terms_out", len(result.terms))

    def add_after(args, result, _):
        terms = sum(len(a.terms) for a in args[:2] if isinstance(a, UglElement))
        tracer.count("enveloping.sum.terms_in", terms)

    def solve_after(args, result, _):
        matrix = args[0]
        rows = len(matrix)
        cols = len(matrix[0]) if rows else 0
        tracer.count("polynomials.solve.cells", rows * (cols + 1))
        tracer.record_max("polynomials.solve.max_rows", rows)
        tracer.record_max("polynomials.solve.max_cols", cols)

    def column_before(args):
        tracer.count("elements.column.memo_lookups")
        return len(memo)

    def column_after(args, result, size_before):
        tracer.count("elements.column.memo_hits", len(memo) == size_before)

    def young_before(args):
        if tracer.top_group() == "elements.expansion":
            tracer.count("elements.expansion.basis_elems")

    return {
        "pbw_mul": (None, pbw_after),
        "UglElement.__add__": (None, add_after),
        "UglElement.__sub__": (None, add_after),
        "UglElement.__neg__": (None, add_after),
        "solve_exact": (None, solve_after),
        "rank_exact": (None, solve_after),
        "column_capelli": (column_before, column_after),
        "young_capelli": (young_before, None),
    }
