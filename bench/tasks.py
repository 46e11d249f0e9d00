"""Workloads of the capelli benchmark: seeded task lists and output checks.

Each workload is a fixed sequence of size classes.  A class has a finite
menu of inputs and draws a fixed number of them from the seed, so every
seed does about the same work while the inputs differ.  Every menu item has
a key; ``reference.json`` holds the digest of the seed commit's output for
each key whose menu is small enough to enumerate (``make_reference.py``
writes it, at the commit whose outputs are the reference).  Tasks whose
menu is too large to enumerate are checked by an independent route instead,
and most tasks are checked both ways.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).with_name("reference.json")

# The cost of a qimm or is_central task depends on the shape far more than
# on anything else (up to 2x between shapes of one size), so these menus keep
# only shapes of similar cost: the draw changes the inputs but not the amount
# of work.  The two heaviest classes, whose task is the largest of the pass,
# hold one shape each (the rungs qimm --shape 3,2,1 --n 4 and --shape 3,2
# --n 5) and draw only the variant: qimm or --schur, text or json.
QIMM_MENUS = {
    "qimm_h6_n4": ([(3, 2, 1)], 4),
    "qimm_h5_n5": ([(3, 2)], 5),
    "qimm_h5_n4": ([(4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)], 4),
}
CENTRAL_MENUS = {
    "central_n5": ([(3, 1), (2, 2), (2, 1, 1)], 5),
    "central_n4": ([(4,), (3, 1), (2, 2), (2, 1, 1)], 4),
}
STRAIGHTEN_SHAPES = ((2, 2), (3, 1), (2, 1, 1))

# workload -> ((class, number drawn per run), ...), in the order they run.
# The heaviest class runs first, on a cold memo.  The oracle classes
# oracle_h<depth>_t<terms> group the column words of one depth by the number
# of PBW terms of [l|r], which sets the cost of applying it.
WORKLOADS = {
    "central_build": (
        ("qimm_h6_n4", 1),
        ("qimm_h5_n5", 1),
        ("qimm_h5_n4", 2),
        ("det_6", 1),
    ),
    "standard_expansion": (
        ("expand_w3_n3", 10),
        ("straighten_w4_n4", 3),
    ),
    "verify_sweep": (
        ("oracle_h2_t1", 5),
        ("oracle_h2_t2", 5),
        ("oracle_h3_t1", 4),
        ("oracle_h3_t2", 4),
        ("oracle_h3_t3", 4),
        ("oracle_h3_t4", 4),
        ("central_n5", 2),
        ("central_n4", 3),
    ),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _shape_text(shape) -> str:
    return ",".join(map(str, shape))


def _word_text(word) -> str:
    return "".join(map(str, word))


def _parse_shape(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _parse_word(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text)


def menu(cls: str) -> list[str]:
    """Every key the class can draw, in a fixed order."""
    if cls in QIMM_MENUS:
        shapes, n = QIMM_MENUS[cls]
        return [
            f"qimm:{_shape_text(s)}:{n}:{kind}:{fmt}"
            for s in shapes
            for kind in ("qimm", "schur")
            for fmt in ("text", "json")
        ]
    if cls == "det_6":
        return ["det:6"]
    if cls in CENTRAL_MENUS:
        shapes, n = CENTRAL_MENUS[cls]
        return [f"central:{_shape_text(s)}:{n}" for s in shapes]
    return computed_menus()[cls]


def expand_candidates() -> list[str]:
    """Capelli immanants Cimm_shape[l; r] at n = 3 with sorted words."""
    words = sorted({tuple(sorted(w)) for w in itertools.product((1, 2, 3), repeat=3)})
    return [
        f"expand:{_shape_text(s)}:{_word_text(l)}:{_word_text(r)}"
        for s in ((3,), (2, 1), (1, 1, 1))
        for l in words
        for r in words
    ]


def oracle_candidates(depth: int) -> list[str]:
    """Every pair of column words of the depth over 1..3."""
    words = [_word_text(w) for w in itertools.product((1, 2, 3), repeat=depth)]
    return [f"oracle:{l}:{r}" for l in words for r in words]


@functools.cache
def computed_menus() -> dict[str, list[str]]:
    """Menus that depend on the reference outputs, as recorded in the
    reference file: ``expand_w3_n3`` leaves out the immanants that vanish
    (their expansion is empty and costs nothing), and the oracle classes
    group word pairs by the number of terms of the column element."""
    return json.loads(REFERENCE.read_text())["menus"]


def draw(workload: str, seed: int, smoke: bool = False) -> list[str]:
    """The task keys of one run: a fixed number per class, drawn from the
    seed without replacement.  ``smoke`` draws one per class."""
    rng = random.Random(f"{workload}/{seed}")
    keys = []
    for cls, count in WORKLOADS[workload]:
        if cls == "straighten_w4_n4":
            shapes = STRAIGHTEN_SHAPES[: 1 if smoke else count]
            keys.extend(_draw_straighten(rng, shape) for shape in shapes)
        else:
            keys.extend(rng.sample(menu(cls), 1 if smoke else count))
    return keys


def _draw_straighten(rng: random.Random, shape) -> str:
    """A row-strict pair of the shape over 1..4; there are too many pairs to
    list, so these keys carry no digest."""
    rows = [
        [sorted(rng.sample(range(1, 5), length)) for length in shape]
        for _ in range(2)
    ]
    left, right = (";".join(_word_text(r) for r in t) for t in rows)
    return f"straighten:{left}:{right}"


def _ok(_output) -> None:
    return None


@dataclass
class Task:
    key: str
    run: Callable[[], object]  # the timed call
    verify: Callable[[object], str | None] = _ok  # independent route; None if right
    render: Callable[[object], str] | None = None  # text compared by digest


def load_reference() -> dict[str, str]:
    """Digest of the reference output for each key."""
    return json.loads(REFERENCE.read_text())["digests"]


def check(task: Task, output, reference: dict[str, str]) -> str | None:
    """None when the output passes its independent check and matches its
    reference digest; otherwise what is wrong."""
    error = task.verify(output)
    if error is not None or task.render is None:
        return error
    want = reference.get(task.key)
    if want is None:
        return "no reference digest"
    got = digest(task.render(output))
    return None if got == want else f"digest {got} != reference {want}"


def build(keys: list[str]) -> list[Task]:
    """Turn keys into tasks.  Inputs that are not part of the measured
    command (probe monomials, the elements that ``is_central`` examines) are
    made here, before the first timed task.  A key whose inputs cannot be
    made gives a task that raises the same error when run, so that it counts
    as failed."""
    shared: dict = {}
    built = []
    for key in keys:
        try:
            built.append(_build_one(key, shared))
        except Exception as exc:
            built.append(Task(key, functools.partial(_reraise, exc)))
    return built


def _reraise(exc: Exception):
    raise exc


def _build_one(key: str, shared: dict) -> Task:
    # Every call goes through a module attribute, so that the wrappers of a
    # traced pass, installed after the tasks are built, see it.
    import capelli
    import capelli.cli
    import capelli.polynomials as polynomials

    kind, *fields = key.split(":")
    if kind == "qimm":
        shape, n, variant, fmt = fields
        argv = ["qimm", "--shape", shape, "--n", n, "--format", fmt]
        if variant == "schur":
            argv.append("--schur")

        def run_cli():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = capelli.cli.main(argv)
            return code, out.getvalue()

        return Task(
            key,
            run_cli,
            verify=lambda result: None if result[0] == 0 else f"exit code {result[0]}",
            render=lambda result: result[1],
        )

    if kind == "det":
        n = int(fields[0])

        def capelli_identity(element):
            # The determinant acts on C[M_{n,n}] as det(x) det(d/dx), so it
            # takes x_11 x_22 ... x_nn to det(x).  Comparing it with
            # schur_element((1,)*n, n) instead takes about a minute at n = 6.
            word = range(1, n + 1)
            diagonal = polynomials.MPoly.monomial(n, n, zip(word, word))
            det_x = polynomials.biproduct(n, n, word, word) * polynomials.column_sign(n)
            if polynomials.act_ugl(element, diagonal) == det_x:
                return None
            return "does not act as det(x) det(d/dx) on x_11 ... x_nn"

        return Task(
            key,
            lambda: capelli.capelli_determinant(n),
            verify=capelli_identity,
            render=lambda x: x.text(),
        )

    if kind == "expand":
        shape, lefts, rights = _parse_shape(fields[0]), *map(_parse_word, fields[1:])

        def run_expand():
            x = capelli.capelli_immanant(shape, lefts, rights, 3)
            return capelli.standard_capelli_expansion(x)

        def support(expansion):
            if expansion.shapes() <= {shape}:
                return None
            return f"support {sorted(expansion.shapes())} is not in {{{shape}}}"

        return Task(key, run_expand, verify=support, render=lambda e: e.text())

    if kind == "straighten":
        left, right = (
            capelli.Tableau(tuple(_parse_word(r) for r in t.split(";"))) for t in fields
        )

        def run_straighten():
            p = capelli.bitableau(4, 4, left, right)
            return p, capelli.straighten(p)

        def sums_back(result):
            p, expansion = result
            if not all(s.is_standard() and t.is_standard() for s, t, _ in expansion.terms):
                return "expansion uses a non-standard pair"
            if expansion.to_polynomial() != p:
                return "expansion does not sum back to the bitableau"
            return None

        return Task(key, run_straighten, verify=sums_back)

    if kind == "oracle":
        lefts, rights = map(_parse_word, fields)
        if "probes" not in shared:
            shared["probes"] = probe_monomials(3, 3, 3)
        probes = shared["probes"]

        def run_oracle():
            x = capelli.column_capelli(lefts, rights, 3)
            via_ugl = [polynomials.act_ugl(x, p) for p in probes]
            direct = [polynomials.act_column_capelli_diff(lefts, rights, p) for p in probes]
            return via_ugl, direct

        def agree(result):
            for probe, a, b in zip(probes, *result):
                if a != b:
                    return f"on {probe.text()}: {a.text()} != {b.text()}"
            return None

        return Task(
            key,
            run_oracle,
            verify=agree,
            render=lambda result: "\n".join(q.text() for q in result[0]),
        )

    if kind == "central":
        shape, n = _parse_shape(fields[0]), int(fields[1])
        element = capelli.schur_element(shape, n)
        return Task(
            key,
            element.is_central,
            verify=lambda central: None if central is True else f"is_central() gave {central!r}",
        )

    raise KeyError(key)


def probe_monomials(n: int, d: int, degree: int) -> list:
    """Every monomial of degree at most ``degree`` in the n*d variables
    (220 of them at n = d = 3, degree 3)."""
    from capelli import MPoly

    probes = []
    for total in range(degree + 1):
        for exps in itertools.product(range(total + 1), repeat=n * d):
            if sum(exps) == total:
                probes.append(MPoly(n, d, {exps: Fraction(1)}))
    return probes
