"""Regenerate the committed reference data: size tables, digests, CLI corpus.

    python3 perfbench/gen_data.py

The values are the program's outputs at the commit that defined the
benchmark; the benchmark's checks compare later outputs with them.  Running
this again at a later commit would silently accept any change in output, so
regenerate only when an output is meant to change.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from glidekit import cli, glides, ktheory, poset, qsym  # noqa: E402

from workloads import CORPUS, DATA, coords_digest  # noqa: E402


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def all_compositions(max_size):
    return [a for s in range(max_size + 1) for a in compositions(s)]


def glide_rows():
    rows = []
    for alpha in all_compositions(6):
        for n in range(len(alpha), 8):
            p = poset.build_poset(alpha, n)
            mu = p.mobius()
            rows.append(
                {
                    "alpha": list(alpha),
                    "n": n,
                    "elements": len(p),
                    "atoms": len(p.atom_set),
                    "covers": len(p.covers()),
                    "mobius_nonzero": sum(1 for v in mu.values() if v),
                    "c_set": len(glides.enumerate_C(alpha, n)),
                }
            )
    rows.sort(key=lambda r: (r["elements"], r["covers"], r["n"], r["alpha"]))
    return rows


def kclass_rows():
    rows = []
    for alpha in all_compositions(5):
        for n in range(len(alpha), 7):
            for m in range(max(alpha, default=1), 6):
                k = ktheory.knutson_class(alpha, n, m)
                chern = ktheory.chern_substitute(k)
                coords = qsym.polynomial_to_m(chern, n).coords
                rows.append(
                    {
                        "alpha": list(alpha),
                        "n": n,
                        "m": m,
                        "kclass_terms": len(k.poly.terms),
                        "chern_terms": len(chern.terms),
                        "m_coords": len(coords),
                        "m_coords_sha256": coords_digest(coords),
                    }
                )
    rows.sort(key=lambda r: (r["chern_terms"], r["kclass_terms"], r["n"], r["m"], r["alpha"]))
    return rows


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest_corpus():
    """Fill in exit codes and stdout digests of the well-formed requests."""
    path = CORPUS / "argv.json"
    corpus = json.loads(path.read_text(encoding="utf-8"))
    for request in corpus["requests"]:
        code, out, _ = run_cli(request["argv"])
        request["exit"] = code
        request["stdout_sha256"] = hashlib.sha256(out.encode()).hexdigest()
    for request in corpus["malformed"]:
        try:
            code, out, err = run_cli(request["argv"])
            typed = code == 1 and not out and "code" in json.loads(err)["error"]
        except Exception:
            typed = False
        request["typed_at_definition"] = typed
    path.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")


def write(name, rows):
    DATA.mkdir(exist_ok=True)
    payload = {"instances": rows}
    (DATA / f"{name}.json").write_text(
        json.dumps(payload, separators=(",", ":")).replace("},{", "},\n{") + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    os.chdir(ROOT)  # corpus paths are relative to the repository root
    digest_corpus()
    write("glide_sweep", glide_rows())
    write("kclass_sweep", kclass_rows())
