"""Write ``reference.json``: the computed menus and the digest of every
enumerable menu item's output.

    PYTHONPATH=src python3 bench/make_reference.py

Run from the root of a source checkout at the commit whose outputs are the
reference (a few minutes on one core).  Every output must also pass its
independent check, or nothing is written.
"""

from __future__ import annotations

import json
import sys

import tasks


def _computed_menus() -> dict[str, list[str]]:
    import capelli

    menus: dict[str, list[str]] = {"expand_w3_n3": []}
    for key in tasks.expand_candidates():
        _, shape, lefts, rights = key.split(":")
        element = capelli.capelli_immanant(
            tuple(int(p) for p in shape.split(",")),
            tuple(int(c) for c in lefts),
            tuple(int(c) for c in rights),
            3,
        )
        if element:
            menus["expand_w3_n3"].append(key)
    for depth in (2, 3):
        for key in tasks.oracle_candidates(depth):
            _, lefts, rights = key.split(":")
            element = capelli.column_capelli(tuple(map(int, lefts)), tuple(map(int, rights)), 3)
            menus.setdefault(f"oracle_h{depth}_t{len(element.terms)}", []).append(key)
    return menus


def main() -> int:
    menus = _computed_menus()
    keys = [
        key
        for classes in tasks.WORKLOADS.values()
        for cls, _ in classes
        if cls != "straighten_w4_n4"
        for key in (menus[cls] if cls in menus else tasks.menu(cls))
    ]
    digests = {}
    for task in tasks.build(keys):
        if task.render is None:
            continue
        output = task.run()
        error = task.verify(output)
        if error is not None:
            print(f"{task.key}: {error}", file=sys.stderr)
            return 1
        digests[task.key] = tasks.digest(task.render(output))
    tasks.REFERENCE.write_text(
        json.dumps({"menus": menus, "digests": digests}, indent=0, sort_keys=True) + "\n"
    )
    sizes = {cls: len(keys) for cls, keys in sorted(menus.items())}
    print(f"{len(digests)} digests; computed menus {sizes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
