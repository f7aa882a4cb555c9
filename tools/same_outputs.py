"""Check that a change leaves every output of the docrel pipeline as it was.

    python tools/same_outputs.py PARENT_REV [CHANGE_REV]

Extracts both revisions of this repository with ``git archive`` into a
temporary directory; CHANGE_REV defaults to the tracked files of the working
tree (``git stash create``), else HEAD. Each tree then runs, on a tiny
world, gen-data, build-regime (OOG), train, eval, ablate, sweep-ratio,
selftest and a ``--from-manifest`` replay of train and eval, writing into the
same output path so that recorded paths agree. Prints the sha256 of every
output file under both trees and whether they agree; manifests are
compared without ``runtime_seconds``. Exits 1 if any output differs or is
missing from one tree, else 0. Uses only the standard library, and needs
numpy for the docrel runs themselves.
"""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

# the tiny world of the CLI tests, and settings that train it in seconds
GEN = ["--set", "data.num_relations=8", "--set", "data.train_docs=10", "--set", "data.dev_docs=4",
       "--set", "data.test_docs=4", "--set", "data.num_entities=30", "--set", "data.kg_pairs=40",
       "--set", "data.pairs_min=4", "--set", "data.pairs_max=6", "--set", "data.embedding_dim=12"]
CUTS = ["--set", "eval.head_cut=2", "--set", "eval.tail_cut=3"]
TRAIN = ["--set", "train.epochs=2", "--set", "train.hidden_dim=8", "--set", "train.group_count=2",
         "--set", "train.learning_rate=0.01", *CUTS]
ONE_SEED = ["--set", "experiment.seeds=0"]


def steps(out: str) -> list[tuple[str, list[str]]]:
    """Each step's name and ``docrel`` arguments, with outputs under ``out``."""
    gold, regime, run = (os.path.join(out, name) for name in ("gold", "regime", "train"))
    return [
        ("gen-data", ["gen-data", "--out", gold, *GEN]),
        ("build-regime", ["build-regime", "--data", gold, "--out", regime,
                          "--set", "regime.kind=OOG", "--set", "regime.noise_rate=0.3"]),
        ("train", ["train", "--regime", regime, "--out", run, *TRAIN]),
        ("eval", ["eval", "--regime", regime, "--checkpoint", os.path.join(run, "final.ckpt"),
                  "--split", "dev", "--out", os.path.join(out, "eval"), *CUTS]),
        ("ablate", ["ablate", "--regime", gold, "--out", os.path.join(out, "ablate"),
                    *ONE_SEED, *TRAIN]),
        ("sweep-ratio", ["sweep-ratio", "--regime", regime, "--out", os.path.join(out, "sweep"),
                         "--set", "experiment.ratios=0.2,1.0", *ONE_SEED, *TRAIN]),
        ("selftest", ["selftest", "--seed", "1"]),
        ("train-replay", ["train", "--from-manifest", os.path.join(run, "manifest.json"),
                          "--out", os.path.join(out, "train-replay")]),
        ("eval-replay", ["eval", "--from-manifest", os.path.join(out, "eval", "manifest.json"),
                         "--out", os.path.join(out, "eval-replay")]),
    ]


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def extract(rev: str, directory: str) -> None:
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(directory, **safe)


def run_pipeline(tree: str, out: str) -> None:
    """Run every step with ``tree``'s source; each step's stdout is an output too."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    os.makedirs(out)
    for name, args in steps(out):
        done = subprocess.run([sys.executable, "-m", "docrel_cli", *args], cwd=tree, env=env,
                              capture_output=True, text=True)
        with open(os.path.join(out, f"{name}.stdout"), "w", encoding="utf-8") as fh:
            fh.write(done.stdout)
        if done.returncode != 0:
            raise SystemExit(f"{tree}: docrel {name} exited {done.returncode}:\n{done.stderr}")


def digests(out: str) -> dict[str, str]:
    """sha256 of every file under ``out``, by relative path; a manifest's
    digest is taken without its ``runtime_seconds``."""
    found = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "manifest.json":
                manifest = json.loads(data)
                manifest.pop("runtime_seconds", None)
                data = json.dumps(manifest, sort_keys=True).encode()
            found[os.path.relpath(path, out)] = hashlib.sha256(data).hexdigest()
    return found


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    parent = argv[0]
    change = argv[1] if len(argv) == 2 else git("stash", "create").decode().strip() or "HEAD"
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as scratch:
        out = os.path.join(scratch, "out")
        results = {}
        for side, rev in (("parent", parent), ("change", change)):
            tree = os.path.join(scratch, side)
            extract(rev, tree)
            run_pipeline(tree, out)
            results[side] = digests(out)
            shutil.rmtree(out)
    names = sorted(results["parent"].keys() | results["change"].keys())
    differ = 0
    for name in names:
        a, b = results["parent"].get(name, "-"), results["change"].get(name, "-")
        differ += a != b
        print(f"{'same' if a == b else 'DIFF'}  {a[:16]}  {b[:16]}  {name}")
    print(f"{len(names) - differ} of {len(names)} outputs identical"
          " (manifests compared without runtime_seconds)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
