"""Golden CLI corpus: exact stdout bytes and exit code of a fixed set of argvs.

Every subcommand runs in each of its output forms, with ``--precision 12``,
``mc --out`` and ``mc --json``, and with usage and domain errors.  ``{tmp}``
stands for a per-test directory holding the input files below; it is put back
in place of that directory in the output before hashing, so the digests do
not depend on where the test runs.  For ``mc --out`` the digest covers the
written file after stdout.
"""

import contextlib
import hashlib
import io
import json

import pytest

from mdpcal.cli import main

MC_CONFIG = {
    "prior": {"family": "laplace-location", "lambda": 2.0, "gamma_rate": 0.5,
              "truncation": 8.0},
    "mc": {"m_alternatives": 100, "m_null": 100, "n": 50, "seed": 5,
           "threshold_grid": [1.0, 2.0, 3.0, 4.0]},
    "statistic": "sign",
}
EXPONENT_CONFIG = {
    "prior": {"lambda": 1.0, "gamma_rate": 1.0, "truncation": 8.0},
    "radii": [0.3, 0.2, 0.1], "m": 1000, "seed": 1,
}
SANOV_PROBLEM = {"support": [0, 1, 2], "probs": [0.5, 0.3, 0.2], "phi": [-0.9, 0.1, 1.1]}

# argv -> (exit code, sha256 of the output)
GOLDEN = {
    "--version":
        (0, "eef202b7225125a9a8b49a2bde4939d1b97c9ba5c352c2ac36e89bd0890b2e33"),
    "frobnicate":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "calibrate ks --kappa 2 --n 10000":
        (0, "9a71c985ddda84f3a131fbeea75d22196c5f48214d3b911f03e7eb31e714a505"),
    "calibrate ks --kappa 2 --n 10000 --json":
        (0, "9a71c985ddda84f3a131fbeea75d22196c5f48214d3b911f03e7eb31e714a505"),
    "calibrate ks --kappa 2 --n 10000 --csv":
        (0, "243d90632fe70969f8e6f1bf8eebbd034ac612a2b1cd1880a7fce09df17148b2"),
    "calibrate ks --kappa 2 --n 10000 --precision 12":
        (0, "ce97e740d38667bd41209904797ed6bd709aa07b870d04629598f04300588c5c"),
    "calibrate sign --lambda 2 --n 100":
        (0, "6117fc2714eea09470c511685068c9684d7456bbd04636e536dc02a750e137e2"),
    "calibrate sign --lambda 2 --n 100 --csv":
        (0, "d7aba351a6b6f2ebbc9276a11cedb1c9d425fda69f62e9f2f0f7e89a0718bdba"),
    "calibrate chi2 --k 10 --n 10000":
        (0, "6df5fea83a3853003431ae4d79b88b5c5d3aee68b259cf9ec3b9127f8ebf6c79"),
    "calibrate chi2 --k 10 --n 10000 --csv":
        (0, "0de57d922cbcbff2879d77f8efde3471db3a63c3684033492aa144a6a32dc188"),
    "calibrate contingency --r 3 --c 4 --n 10000":
        (0, "9b5b7198f501c8deac327ebe7b87f18beeb17345a39c5b641c2ac048151eaa2a"),
    "calibrate contingency --r 3 --c 4 --n 10000 --csv":
        (0, "04ed760c673339092e1f4cafcac855f331f6dc27f996f4e89a452e36378a212a"),
    "calibrate fisher --lambda 1 --d 2 --n 1000":
        (0, "6bc28cdac1bcc78724dcc9725552421be307c4b76e3468dd6db5580cb4ad8193"),
    "calibrate fisher --lambda 1 --d 2 --n 1000 --csv --precision 12":
        (0, "96b8bfbb5dd13b9e0ffda5544645a47170b21ed9dfcf90c8e431cd2dd686aa18"),
    "calibrate ks --kappa 2 --n 10000 --json --csv":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "calibrate ks --n 100":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "calibrate ks --kappa -1 --n 100":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "risk-curve --rho 1 --kappa 2 --n 10000":
        (0, "3ce24407b03f3c06c4654b6174b09af4e1618ea66d98bdc7beb8298ecdb72038"),
    "risk-curve --rho 1 --kappa 2 --n 10000 --json":
        (0, "aeac0a2ec5d22b78305bc8b4b625dbd4bb8bd74defc7a700bcd5bcfd24d0f5c1"),
    "risk-curve --rho 0.25 --kappa 3 --n 1000 --a-min 0.2 --a-max 6 --points 64 --precision 12":
        (0, "4435ef37ad71215e35319696bc6a3d31441e595dd02251b183bda6b593d69afe"),
    "risk-curve --rho 1 --kappa 2 --n 100 --a-min 1.2 --a-max 2.0":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "regimes --rho 1 --kappa 2 --alpha 0.05 --n-list 100,10000,1000000":
        (0, "b2a66b448140f53d089dc5604c001c9262c1361bb3fe6b2941f6ab2f265c3aca"),
    "regimes --rho 1 --kappa 2 --alpha 0.05 --n-list 100,10000,1000000 --json":
        (0, "dbbe6bd8e0b8d3c68acc898e8b79097d8a05cf14a07af72d02fe04480c78a90d"),
    "regimes --rho 1 --kappa 2 --alpha 0.05 --n-list 100,10000 --json --precision 12":
        (0, "c13b539377488182f795b22ed80706aa54eb9a2c963eecdd9e3327be2c4e1b26"),
    "tables --out-dir {tmp}/tables":
        (0, "f33bec7ec0562eb66de7732ff825715d6ab0bf3b891938ceac1f3dad2ac36d25"),
    "sanov --input {tmp}/sanov.json":
        (0, "b3c79fb23d1b89e7507aa455b91f4c330036fe6295c7a8625c70ac7f2649daad"),
    "sanov --input {tmp}/sanov.json --precision 12":
        (0, "7d8564a5774dee120482c66f375c49e3769863f461f29e5d03f9573635c4f578"),
    "sanov --input {tmp}/missing.json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "truncation --kappa 2 --n 10000":
        (0, "d3ddd9e304ff9d1df12f589169966a2f8e6297177e21fec2231f060fe111a27c"),
    "truncation --kappa nan --n 100":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "radius --rho 1 --poly 1 --n 100":
        (0, "aa57c7f1a945b72622a50989a74fb08e1e015bae6146e1239fa6091770cb2424"),
    "radius --rho 0.25 --exp 0.5 --n 100":
        (0, "30be4faddcfc352830d021e5fc7df2e63d99edfc8f1eda30f5df074419493489"),
    "radius --rho 1 --n 100":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "radius --rho 1 --poly 1 --exp 1 --n 100":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "slopes --theta-list 0.5,1,2":
        (0, "f3837ce0d0a21913bb82f11a49f26219b7115cb0ea2177cd1b29aff054c4ccc6"),
    "slopes --theta-list 0.5,1,2 --csv":
        (0, "d1be0ea560fbcd1934a26a17ffd887692b5901329dae370449f560aded3f4f86"),
    "slopes --theta-list 0.5,1,2 --csv --precision 12":
        (0, "0cfabda02a0d3bb3653329541108db12dfe7e405baf22696bfe8a0d095b31b29"),
    "triangulate --counts 7,3 --theta0 0.5,0.5":
        (0, "515bbef736c3f4c081d9dfed997e321d1ba67c860c900ad12bd9499518a2d597"),
    "triangulate --counts 7,3,5 --theta0 0.2,0.3,0.5 --dirichlet 2 --precision 12":
        (0, "26103df9bd0c325717b348d42c1c9e467e7844e11181ce8102be0a1cd3b89443"),
    "triangulate --counts 7,x --theta0 0.5,0.5":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mc --config {tmp}/mc.json":
        (0, "e408a48b0026f0d9c53e84fc669db8605c711bebe9643a2ad633ecc87c87cdd7"),
    "mc --config {tmp}/mc.json --json":
        (0, "8b38d2943f7dccee874fe21928533c16dc088d1e6304df73d9945f9cb593fd17"),
    "mc --config {tmp}/mc.json --json --precision 12":
        (0, "9e68d5eb45ecf8299fc00067081b2ad512efc7ab1fe25375e54e0331f76f0997"),
    "mc --config {tmp}/mc.json --out {tmp}/curve.csv":
        (0, "e408a48b0026f0d9c53e84fc669db8605c711bebe9643a2ad633ecc87c87cdd7"),
    "prior-exponent --config {tmp}/exp.json":
        (0, "6532738417c63f6c12ba1a0624aca60a543bedc3eb8ae4f380bb0b2fb62e9660"),
    "plugin --kappa-hat 2 --rho 1 --n 10000":
        (0, "2b979955fa0d94dd7c22a338bdffa5eccf6e12060377b688a2ecea770046dc0e"),
    "plugin --kappa-hat 2 --rho 1 --n 10000 --precision 12":
        (0, "f1c6c2b4078fb36948bbbbbe68f4b1aa055a874f4e839c91b083df6e724e2cb3"),
    "plugin --kappa-hat 2 --rho 1":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def cli_output(argv: str, tmp) -> tuple[int, str]:
    """Run ``main`` on ``argv`` with ``{tmp}`` filled in; return (exit code, output)."""
    for name, payload in (("mc.json", MC_CONFIG), ("exp.json", EXPONENT_CONFIG),
                          ("sanov.json", SANOV_PROBLEM)):
        (tmp / name).write_text(json.dumps(payload))
    args = argv.replace("{tmp}", str(tmp)).split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(args)
        except SystemExit as exc:  # --version exits from inside argparse
            code = exc.code
    text = out.getvalue()
    if "--out" in args:
        text += (tmp / "curve.csv").read_bytes().decode()
    return code, text.replace(str(tmp), "{tmp}")


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_cli_output_is_unchanged(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("MDPCAL_SEED", raising=False)
    code, text = cli_output(argv, tmp_path)
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == GOLDEN[argv], text
