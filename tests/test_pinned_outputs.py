"""The benchmark's three workloads, run in-process, give the pinned output bytes.

Every refactor of the pipeline must leave the outputs byte-identical. The
workload bodies, sizes and seed are the benchmark's own (``perfbench/``);
this runs them without its timing harness and compares each output's
sha256 with ``perfbench/expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

import skattr.cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workload  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
SEED = EXPECTED["pinned_seed"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_grid(work):
    out = work / "out"
    out.mkdir()
    config = workload.grid_config(EXPECTED["grid"]["users"], SEED)
    (out / "run.json").write_text(json.dumps(config), encoding="utf-8")
    assert skattr.cli.main(["benchmark", "--config", "out/run.json", "--out", "out"]) == 0
    hashes = {label: sha256(out / label) for label in run.OUTPUTS["grid"]}
    assert hashes == EXPECTED["grid"]["hashes"]


def test_sweep():
    gen = skattr.config.gen_config_from_dict(workload.gen_config(EXPECTED["sweep"]["users"], SEED))
    users, _ = skattr.synthgen.generate_dataset(gen)
    text = json.dumps(workload.sweep_body(skattr, users, SEED), sort_keys=True)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert {"sweep.json": digest} == EXPECTED["sweep"]["hashes"]


def stagewise_hashes(work: Path, keep_view: bool) -> dict[str, str]:
    """The stagewise outputs' hashes; without the view, ``attribute`` and ``evaluate`` simulate again."""
    gen = workload.gen_config(EXPECTED["stagewise"]["users"], SEED)
    (work / "gen.json").write_text(json.dumps(gen), encoding="utf-8")
    hashes = {}
    for stage, args, outputs in run.stagewise_commands(SEED):
        assert skattr.cli.main(args) == 0, stage
        if stage == "simulate":
            views = list((work / "data").glob("postbacks-*.csv"))
            assert len(views) == 1
            if not keep_view:
                views[0].unlink()
        hashes.update({label: sha256(work / label) for label in outputs})
    return hashes


def test_stagewise(work):
    assert stagewise_hashes(work, keep_view=True) == EXPECTED["stagewise"]["hashes"]


def test_stagewise_without_view(work):
    assert stagewise_hashes(work, keep_view=False) == EXPECTED["stagewise"]["hashes"]
