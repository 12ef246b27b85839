"""`repro` runs its termination and lint analyses without networkx.

The package declares no runtime dependencies, so a fresh interpreter
where ``import networkx`` fails must still import ``repro`` and run the
certificate lattice and the deep lint.  The check runs in a subprocess
so no module already loaded by the test session can mask a missing
import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

REPO = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json, sys
sys.modules["networkx"] = None  # any `import networkx` now raises
import repro, repro.chase, repro.analysis
from repro.analysis import certificate_for, run_lint
from repro.lang import Schema, parse_dependency, parse_tgds

cases = {
    "weak-acyclicity": (
        "P(x) -> exists z . E(x, z)",
        Schema.of(("E", 2), ("P", 1)),
    ),
    "joint-acyclicity": (
        "A(x) -> exists z . R(x, z)\nR(x, y), A(y) -> exists w . R(y, w)",
        Schema.of(("A", 1), ("R", 2), ("B", 1)),
    ),
    "super-weak-acyclicity": (
        "B(x) -> exists y1, y2 . S(x, y1, y2), S(x, y2, y1)\n"
        "S(u, w, w) -> B(w)",
        Schema.of(("B", 1), ("S", 3)),
    ),
    "model-summarising-acyclicity": (
        "A(x) -> exists y . R(x, y)\n"
        "R(x, y) -> exists v . S(y, v)\n"
        "R(x, y), S(y, z), C(z) -> exists w . R(y, w)",
        Schema.of(("A", 1), ("R", 2), ("S", 2), ("C", 1)),
    ),
}
certificates = {
    name: certificate_for(parse_tgds(text, schema)).certificate.value
    for name, (text, schema) in cases.items()
}
deps = [
    parse_dependency(line)
    for line in (
        raw.split("#", 1)[0].strip()
        for raw in open(sys.argv[1]).read().splitlines()
    )
    if line
]
codes = sorted({d.code for d in run_lint(deps, deep=True).diagnostics})
loaded = sorted(
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "networkx" and module is not None
)
print(json.dumps({"certificates": certificates, "codes": codes,
                  "loaded": loaded}))
"""


def test_repro_runs_without_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            SCRIPT,
            str(REPO / "examples" / "rules" / "deep_semantics.rules"),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    # Each curated set lands on the certificate it is named after.
    assert len(result["certificates"]) == 4
    for expected, certificate in result["certificates"].items():
        assert certificate == expected
    assert {"D001", "L001"} <= set(result["codes"])
    assert result["loaded"] == []
