"""compile_commands.json handling for mnsim-analyze.

The analyzer is driven by the compile database CMake exports
(-DCMAKE_EXPORT_COMPILE_COMMANDS=ON): the database defines the exact set
of translation units the build actually compiles, so a source file the
build drops is not analyzed either.

Headers never appear in a compile database, so repo headers under the
analyzed roots are added as pseudo-TUs and header-only code is not a
blind spot.
"""

from __future__ import annotations

import json
import pathlib


class CompileDbError(ValueError):
    pass


def locate(hint: pathlib.Path) -> pathlib.Path:
    """Accept either the JSON file itself or a build directory."""
    if hint.is_dir():
        hint = hint / "compile_commands.json"
    if not hint.is_file():
        raise CompileDbError(
            f"no compile database at {hint}; configure with "
            f"`cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON`"
        )
    return hint


def load(db_path: pathlib.Path) -> list[pathlib.Path]:
    """Absolute, resolved source paths of the database's TUs, deduplicated
    (a TU compiled into several targets appears once)."""
    db_path = locate(db_path)
    try:
        entries = json.loads(db_path.read_text())
    except json.JSONDecodeError as err:
        raise CompileDbError(f"{db_path}: invalid JSON: {err}") from err
    if not isinstance(entries, list) or not entries:
        raise CompileDbError(f"{db_path}: empty compile database")

    tus: list[pathlib.Path] = []
    seen: set[pathlib.Path] = set()
    for entry in entries:
        path = (pathlib.Path(entry["directory"]) / entry["file"]).resolve()
        if path not in seen:
            seen.add(path)
            tus.append(path)
    return tus


def select(tus: list[pathlib.Path], repo: pathlib.Path,
           roots: list[str]) -> list[pathlib.Path]:
    """Keep TUs whose file lives under one of the repo-relative roots."""
    prefixes = tuple(str((repo / r).resolve()) + "/" for r in roots)
    return [tu for tu in tus if str(tu).startswith(prefixes)]


def header_pseudo_tus(repo: pathlib.Path,
                      roots: list[str]) -> list[pathlib.Path]:
    """Repo headers under the analyzed roots."""
    out: list[pathlib.Path] = []
    for root in roots:
        base = repo / root
        if not base.is_dir():
            continue
        for ext in ("*.hpp", "*.h"):
            out.extend(path.resolve() for path in sorted(base.rglob(ext)))
    return out
