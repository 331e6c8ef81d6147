"""The failing-seed corpus: shrunk counterexamples as JSON files.

Every failure a campaign finds is persisted as one self-contained JSON
document (schema ``repro-fuzz/1``): the algorithm configuration, the input
value, the generating seed, the oracle's verdict, and the (shrunk)
:class:`~repro.fuzz.script.AdversaryScript`.  The committed corpus lives
under ``tests/fuzz_corpus/`` and the tier-1 suite replays every entry,
asserting the recorded verdict still reproduces — counterexamples are
regression tests, found once and kept forever.

Reproduce one by hand with::

    python -m repro fuzz --replay tests/fuzz_corpus/<file>.json
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.fuzz.campaign import FuzzCase
from repro.fuzz.oracle import FuzzOutcome
from repro.fuzz.script import AdversaryScript
from repro.transport.faults import FaultPlan

CORPUS_SCHEMA = "repro-fuzz/1"


@dataclass(frozen=True)
class CorpusEntry:
    """One persisted counterexample: the case it replays (its script
    shrunk) and the verdict it was recorded with."""

    case: FuzzCase
    verdict: str
    detail: str

    # ------------------------------------------------------------------ JSON

    def to_json_dict(self) -> dict[str, Any]:
        case = self.case
        data = {
            "schema": CORPUS_SCHEMA,
            "algorithm": case.algorithm,
            "n": case.n,
            "t": case.t,
            "params": dict(case.params),
            "value": case.value,
            "seed": case.seed,
            "verdict": self.verdict,
            "detail": self.detail,
            "script": case.script.to_json_dict(),
        }
        # Both are omitted when unset, so files that predate them
        # round-trip unchanged.
        if case.fault_plan is not None and not case.fault_plan.is_empty:
            data["fault_plan"] = case.fault_plan.to_json_dict()
        if case.coin_seed is not None:
            data["coin_seed"] = case.coin_seed
        return data

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "CorpusEntry":
        schema = data.get("schema")
        if schema != CORPUS_SCHEMA:
            raise ValueError(f"unsupported corpus schema {schema!r}")
        plan_data = data.get("fault_plan")
        coin_seed = data.get("coin_seed")
        case = FuzzCase(
            algorithm=data["algorithm"],
            n=int(data["n"]),
            t=int(data["t"]),
            value=data["value"],
            seed=int(data["seed"]),
            script=AdversaryScript.from_json_dict(data["script"]),
            # Ints (``s``, ``max_rounds``) stay ints and floats (``eps``,
            # ``coin_bias``) stay floats: both re-feed the algorithm
            # constructor verbatim.  json never emits bools for these keys.
            params=tuple(
                (k, float(v) if isinstance(v, float) else int(v))
                for k, v in sorted(data.get("params", {}).items())
            ),
            fault_plan=(
                FaultPlan.from_json_dict(plan_data)
                if plan_data is not None
                else None
            ),
            coin_seed=None if coin_seed is None else int(coin_seed),
        )
        return cls(case=case, verdict=data["verdict"], detail=data.get("detail", ""))

    def file_name(self) -> str:
        digest = hashlib.sha256(
            json.dumps(self.to_json_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()[:10]
        return f"{self.case.algorithm}-seed{self.case.seed}-{digest}.json"


def save_entry(directory: Path | str, entry: CorpusEntry) -> Path:
    """Write *entry* under *directory* (created if missing); returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / entry.file_name()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry.to_json_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_entry(path: Path | str) -> CorpusEntry:
    """Read one corpus file."""
    with open(path, encoding="utf-8") as handle:
        return CorpusEntry.from_json_dict(json.load(handle))


def load_entries(directory: Path | str) -> list[tuple[Path, CorpusEntry]]:
    """Every ``*.json`` under *directory*, sorted by file name."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [
        (path, load_entry(path)) for path in sorted(directory.glob("*.json"))
    ]


def replay_entry(entry: CorpusEntry) -> FuzzOutcome:
    """Re-execute a corpus entry's case; returns the fresh outcome."""
    return entry.case.execute()


def save_trace(entry_path: Path | str, entry: CorpusEntry) -> Path:
    """Replay *entry* with a trace; write the trace next to its JSON.

    The trace lands at ``<entry>.trace.jsonl`` beside the corpus file, so
    a shrunk counterexample ships with the full event history of the run
    that exhibits it — ``repro inspect`` shows phase-by-phase where the
    minimal adversary spends its messages.
    """
    trace_path = Path(entry_path).with_suffix(".trace.jsonl")
    entry.case.execute(trace=str(trace_path))
    return trace_path
