"""Output checks for one `sim` invocation, and the reference-value comparison.

Every invocation is checked; a failed check makes the invocation count
as failed.  The checks:

* the process exits 0 (in-process: `main` returns 0);
* every expected CSV exists, has the expected number of data rows, and
  every numeric value in it is finite;
* F, epsilon and eta lie in [0, 1]; a photon sweep has F(alpha=0) = 1;
* every expected SVG is a complete document;
* `regime` reports all four operating-regime checks as passed;
* two runs of one config give byte-identical CSVs (compared by digest
  across passes of one benchmark run);
* fidelity and reflection-summary values agree with the values recorded
  in reference.json for the seed, within the tolerance stated there.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import Invocation

TEXT_COLUMNS = {"state", "backend"}
UNIT_INTERVAL_PREFIXES = ("fidelity", "eps", "eta")      # F, epsilon, eta columns
REFERENCE_COLUMNS = {
    "fidelity.csv": ("fidelity",),
    "reflect_summary.csv": ("epsilon", "eta", "phase_rad"),
}
REGIME_CHECKS = ("zeeman_gap", "strong_reflection", "adiabatic_pulse", "resonance_match")
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
# |value - reference| <= abs + rel * |reference|; the CSVs carry 12
# significant digits, so identical arithmetic reproduces them exactly.
TOLERANCE = {"rel": 1e-9, "abs": 1e-12}


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def column(header: list[str], rows: list[list[str]], name: str) -> list[float]:
    k = header.index(name)
    return [float(r[k]) for r in rows]


def check_outputs(inv: Invocation, out_dir: Path, returncode: int, stdout: str):
    """Return (problems, csv digest, reference values) for one invocation."""
    problems: list[str] = []
    if returncode != 0:
        return [f"exit code {returncode}"], None, {}

    digest = hashlib.sha256()
    values: dict[str, dict[str, list[float]]] = {}
    for name, n_rows in sorted(inv.csv_rows.items()):
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        digest.update(name.encode() + b"\0" + path.read_bytes())
        header, rows = read_csv(path)
        if len(rows) != n_rows:
            problems.append(f"{name}: {len(rows)} rows, expected {n_rows}")
        for col, head in enumerate(header):
            if head in TEXT_COLUMNS:
                continue
            try:
                bad = sum(1 for r in rows if not math.isfinite(float(r[col])))
            except (ValueError, IndexError):
                problems.append(f"{name}: column {head} is not numeric")
                continue
            if bad:
                problems.append(f"{name}: {bad} non-finite values in {head}")
            elif head.startswith(UNIT_INTERVAL_PREFIXES):
                vals = column(header, rows, head)
                if not all(0.0 <= v <= 1.0 for v in vals):
                    problems.append(f"{name}: {head} outside [0, 1]")
        if name == "fidelity.csv" and inv.photon_sweep and not problems:
            at_zero = [f for x, f in zip(column(header, rows, "x_value"),
                                         column(header, rows, "fidelity")) if x == 0.0]
            if at_zero != [1.0]:
                problems.append(f"fidelity.csv: F(alpha=0) = {at_zero}, expected [1.0]")
        if name in REFERENCE_COLUMNS and not problems:
            values[name] = {c: column(header, rows, c) for c in REFERENCE_COLUMNS[name]}

    for name in inv.svg_files:
        path = out_dir / name
        if not path.is_file() or not path.read_text().endswith("</svg>\n"):
            problems.append(f"{name} missing or truncated")

    if inv.command == "regime":
        words = [line.split() for line in stdout.splitlines()]
        passed = {w[1] for w in words if len(w) > 2 and w[0] == "check" and w[2] == "pass"}
        missing = [c for c in REGIME_CHECKS if c not in passed]
        if missing:
            problems.append(f"regime checks not passed: {missing}")

    return problems, digest.hexdigest(), values


def load_reference() -> dict:
    if not REFERENCE_FILE.is_file():
        return {"tolerance": TOLERANCE, "seeds": {}}
    return json.loads(REFERENCE_FILE.read_text())


def write_reference(reference: dict) -> None:
    """One line per workload and seed, so a re-recorded seed shows as one changed line."""
    lines = [f'{{"tolerance": {json.dumps(reference["tolerance"])}, "seeds": {{']
    for i, (workload, seeds) in enumerate(reference["seeds"].items()):
        lines.append(f'{"," if i else ""}{json.dumps(workload)}: {{')
        lines += [f'{"," if j else ""}{json.dumps(seed)}: {json.dumps(values, separators=(",", ":"))}'
                  for j, (seed, values) in enumerate(seeds.items())]
        lines.append("}")
    REFERENCE_FILE.write_text("\n".join(lines) + "\n}}\n")


def compare_reference(reference: dict, workload: str, seed: int,
                      inv_name: str, values: dict) -> list[str] | None:
    """Problems against the recorded values, or None when the seed has none."""
    recorded = reference["seeds"].get(workload, {}).get(str(seed))
    if recorded is None:
        return None
    tol = reference["tolerance"]
    expected = recorded.get(inv_name, {})
    problems = []
    for name, cols in expected.items():
        for col, ref_vals in cols.items():
            got = values.get(name, {}).get(col)
            if got is None or len(got) != len(ref_vals):
                problems.append(f"{name}:{col} missing or wrong length against reference")
                continue
            # phases near +/-pi may land on either branch: compare them mod 2 pi
            diff = [abs(math.remainder(g - r, 2 * math.pi)) if col == "phase_rad" else abs(g - r)
                    for g, r in zip(got, ref_vals)]
            off = [d for d, r in zip(diff, ref_vals) if d > tol["abs"] + tol["rel"] * abs(r)]
            if off:
                problems.append(f"{name}:{col}: {len(off)} values off the reference "
                                f"(worst by {max(off):.3g})")
    return problems
