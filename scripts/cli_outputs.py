"""Print a digest of the CLI's answers on the bundled fixtures, one line per
invocation, so two source trees can be compared byte for byte.

Covers check-gp on every .rws fixture and on the universal systems of
both .pg fixtures, 6-phase completion with certificates, critical pairs,
seeded samples of wp, geodesics, dehn-wp and reduce queries, and one
long reduce word per fixture, all at default caps and in JSON.  Each
line is the sha256 of exit code, stdout, stderr and any file written,
followed by the command.

    python scripts/cli_outputs.py > new.txt
    python scripts/cli_outputs.py --src ../other/src > old.txt
    diff old.txt new.txt
"""

import argparse
import hashlib
import os
import pathlib
import random
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SAMPLES = 4      # words per fixture and query kind
MAX_LEN = 6
LONG_LEN = 2000  # letters of the long reduce word


def _names(path: pathlib.Path):
    for line in path.read_text(encoding="utf-8").splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens and tokens[0] == "alphabet":
            return tokens[1:]
    raise SystemExit(f"{path}: no alphabet line")


def _word(rng: random.Random, names, n=None) -> str:
    n = rng.randint(1, MAX_LEN) if n is None else n
    return " ".join(rng.choice(names) for _ in range(n))


def invocations(tmp: pathlib.Path, seed: int):
    rws = sorted(FIXTURES.glob("*.rws"))
    systems = list(rws)
    for pg in sorted(FIXTURES.glob("*.pg")):
        for sub in ("to-system", "to-system-prime"):
            out = tmp / f"{pg.stem}.{sub}.rws"
            yield ["pregroup", sub, str(pg), "--out", str(out)]
            systems.append(out)
    for path in systems:
        yield ["check-gp", str(path), "--format", "json"]
    for path in rws:
        yield ["complete", str(path), "--certificates", "--format", "json",
               "--max-phases", "6"]
        yield ["critical-pairs", str(path), "--format", "json"]
    rng = random.Random(seed)
    for path in rws:
        names = _names(path)
        for _ in range(SAMPLES):
            yield ["wp", str(path), _word(rng, names), _word(rng, names),
                   "--format", "json"]
            yield ["geodesics", str(path), _word(rng, names), "--format", "json"]
            yield ["dehn-wp", str(path), _word(rng, names), "--format", "json"]
            yield ["reduce", str(path), _word(rng, names), "--format", "json"]
        yield ["reduce", str(path), _word(rng, names, LONG_LEN), "--format", "json"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=pathlib.Path, default=ROOT / "src",
                        help="source tree whose geothue package is run")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for cmd in invocations(tmp, args.seed):
            done = subprocess.run(
                [sys.executable, "-c", "import sys; from geothue.cli import main; "
                 "sys.exit(main())", *cmd],
                env=env, capture_output=True)
            written = b""
            if "--out" in cmd:
                written = pathlib.Path(cmd[cmd.index("--out") + 1]).read_bytes()
            here = str(tmp).encode()
            digest = hashlib.sha256(b"%d\0%s\0%s\0%s" % (
                done.returncode, done.stdout.replace(here, b"$TMP"),
                done.stderr.replace(here, b"$TMP"), written))
            shown = " ".join(
                c.replace(str(tmp), "$TMP").replace(str(ROOT) + "/", "")
                if len(c) <= 80 else f"<{len(c.split())} letters>" for c in cmd)
            print(digest.hexdigest()[:16], done.returncode, shown, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
