"""Output digests of the two numpy-free subcommands, ``finite-check`` and ``influence``.

Each invocation runs in process through ``cli.run``.  Its exit code and
the sha256 of its stdout and of its stderr must match the digests below,
so no output moves silently.  A change that moves one on purpose updates
its digest and lists the invocation as a contract change.

No BLAS build can move these outputs.  The inputs are exact: the m = 1000
sample is ``random.Random(41).random()``, which is integer arithmetic,
written with ``repr``.  But ``--probes`` goes through libm's ``log10`` and
``pow``, so the influence digests assume a correctly rounded libm.

The ``trimmed:0.25`` digest on ``i2.csv`` deliberately pins today's
gross-error sensitivity 2.5: the maximum over the positive probes, not the
supremum 77.5 over the line (open defect I2 in ROADMAP.md).  Making it the
supremum updates that digest as a listed contract change.
"""

import hashlib
import random

import pytest

from illposed.cli import run

M = 1000
_rng = random.Random(41)
INPUTS = {
    "i2.csv": "-50,0.25\n1,0.25\n2,0.25\n3,0.25\n",
    "tied.csv": "0,0.25\n1,0.25\n1,0.25\n2,0.25\n",
    "two.csv": "5,0.5\n6,0.5\n",
    "uniform1000.csv": "".join(f"{_rng.random()!r},{1 / M!r}\n" for _ in range(M)),
}

EMPTY = hashlib.sha256(b"").hexdigest()

# (argv, exit code, sha256 of stdout, sha256 of stderr)
DIGESTS = [
    (["finite-check", "--max-domain", "4", "--max-codomain", "4"], 0,
     "feedf6c3888083aea1402605e5c067a238930b67a3af528d4428df219e2c516c", EMPTY),
    (["finite-check", "--max-domain", "5", "--max-codomain", "3"], 0,
     "067277cfef9eb1339bd10bc7e2ea1a3f28f9b916d4b21121734b6617fc7d8754", EMPTY),
    (["finite-check", "--map", "3 2 : 0,1,1"], 0,
     "615c1b5611c5875237c503fac1ceb2bcda4cdd546a48b4b8b779a2a3073cc052", EMPTY),
    (["finite-check", "--map", "2 3 : 0,2"], 0,
     "1fdf9bba14f452a87c5c4ee997efb4ebb1ffb7d023700af4d94a73e5036a1e75", EMPTY),
    (["finite-check", "--map", "3 3 : 0,1,1", "--param", "3 2 : 0,1,1"], 0,
     "e1dedd9f025d06547fefd2bf290c8f706d69dd3f18f9490e3cc4fbf7e8a7f5e3", EMPTY),
    (["finite-check", "--map", "3 3 : 0,1,1", "--param", "3 2 : 1,0,1"], 0,
     "68eabd3e0e9e3381ee39401673c9880e96622745f0e3daeb220223f7d8215b25", EMPTY),
    (["influence", "i2.csv", "--functional", "mean"], 0,
     "f03132333464ca66684e7763001466f6bfdfa9277de2b95709c9ce0eed5d890d", EMPTY),
    (["influence", "i2.csv", "--functional", "median"], 3,
     EMPTY, "95be493cb40b136c63c224cedade92053e5c1ec95b4209b9a105e75377621050"),
    (["influence", "i2.csv", "--functional", "trimmed:0.25"], 0,
     "0aa4b156d96cf9859806ae7e2fea1800031f9fa4d9e360dd178834765fbfa155", EMPTY),
    (["influence", "tied.csv", "--functional", "mean"], 0,
     "99158878323b9c7e7b13aa18e6cce9820f0bb5ca162c538d798234a88f0c2203", EMPTY),
    (["influence", "tied.csv", "--functional", "median"], 0,
     "d5c954dbf182a7c92e4a5465db4f25b2bec20634baa10d8eb4626b21e21836a0", EMPTY),
    (["influence", "tied.csv", "--functional", "trimmed:0.25"], 0,
     "916e41a44ba4308727650b5fa59cfa853bf1fc6060d0cf7a601849dfcf849f66", EMPTY),
    (["influence", "two.csv", "--functional", "mean"], 0,
     "993ca096165dcf04e648ae400cb1d985aee13987826ce4d57b98e564cd424a64", EMPTY),
    (["influence", "two.csv", "--functional", "median"], 3,
     EMPTY, "574749e1a3f1ca349d49797a1ca04abf3b90dbbca048f9c295cb5ac00247f4fd"),
    (["influence", "two.csv", "--functional", "trimmed:0.25"], 0,
     "9609bdd0f9ed393b10ced9b33f4dc0f67b6d89e6c0841c77d2f9f872820d0a16", EMPTY),
    (["influence", "uniform1000.csv", "--functional", "mean"], 0,
     "cf16932f94942737d3d00c3a3898c3c1ed452b8f420be4ce81b7ad9007097fd0", EMPTY),
    (["influence", "uniform1000.csv", "--functional", "median"], 3,
     EMPTY, "4945dd6b901706a21fb78b064dc6bd9a6a93989ed54e50ff0001d10006aae099"),
    (["influence", "uniform1000.csv", "--functional", "trimmed:0.25"], 0,
     "710aecd7d647af7014539cf6f4ad1ee1348b4e0de2407408507045ac88a45f02", EMPTY),
]
PROBES = ["--probes", "0.5:50:16"]


@pytest.mark.parametrize(
    "argv, code, out_digest, err_digest", DIGESTS, ids=[" ".join(d[0]) for d in DIGESTS]
)
def test_output_digest(tmp_path, monkeypatch, capsys, argv, code, out_digest, err_digest):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)  # relative paths: no temporary directory in the output
    if argv[0] == "influence":
        argv = argv + PROBES
    capsys.readouterr()
    assert run(argv) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest, out
    assert hashlib.sha256(err.encode()).hexdigest() == err_digest, err
