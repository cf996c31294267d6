"""Every artifact of the benchmark's runs, byte for byte, against a table of sha256 digests.

The four `bench/configs` run at seeds 0 and 7 through `main()`, then `compare
--out` of the two mixture runs at each seed. A change that moves any byte of
any of these files fails here. A stated re-baseline edits the rows it
changes, in the same change, and names them.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from langirl.cli import main

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"
RUNS = ("quad_chains", "cmdp_spsa", "mixture_gated", "mixture_multikernel")
SEEDS = (0, 7)

# The digests hold for the numpy release and CPU they were computed on: numpy's
# SIMD loops and random streams may round or draw differently elsewhere.
DIGESTS_NUMPY = "2.4.6"
DIGESTS_MACHINE = "x86_64"
DIGESTS = {
    "0/cmdp_spsa/manifest.json": "2e7ffdf77c38cac26996d616a1193fbda5b022c1b6e5f8470aa231a0a48b557e",
    "0/cmdp_spsa/metrics.json": "11b0b010666c11d76ea9d67a5958a80e1e42956a6dd63c5beef526c536c09158",
    "0/cmdp_spsa/trajectory.csv": "d8170d68a2dbbf3f6b48395dddddb5c7a765faeb2c3fb939119f58ef95f0be21",
    "0/cmdp_spsa/trajectory.json": "beb31fde4af698d2f4f407a3dfbf449accd3a476d4f45252c66bab8956261037",
    "0/compare/compare.csv": "6337b3737c71aab1b98b9dabae1051027400acd6b46866c053242e41ee012717",
    "0/compare/compare.json": "4799e1e9e8f5a6cce7e9fd134982f1f8ff552afb3577c6f751766a597409d485",
    "0/mixture_gated/baseline.csv": "1d6bbede47adeb5e0b8c4cdaa2b18ff1f588a732fa0fe915ea729afe2868ebcf",
    "0/mixture_gated/baseline.json": "b858d61dc6fd1b9793785197b0a1d78b670615a1962b376c1102ede6fb8c55d0",
    "0/mixture_gated/baseline_density.csv": "e73be9cf593ffb7bc80ce17b306ea4c274c87a884d90158d93c39d4d8c98972e",
    "0/mixture_gated/density.csv": "510536d131f8bc78a3b7f884c20523966d875c4bb2dfc3adc7a46c018c2ed98a",
    "0/mixture_gated/manifest.json": "d30b70b34251c4c556c5d624e6863192c9aa4b93a43744fcf859bd9f95820913",
    "0/mixture_gated/metrics.json": "7259f08b83bfd4881328046391d1310f7a95a9a5a577c9db30dd1c75411f4f2b",
    "0/mixture_gated/trajectory_c0.csv": "b37c408b1962fa29aa46889dfe29e6aaa307f5340b77a781c796426511af2f12",
    "0/mixture_gated/trajectory_c0.json": "547978c24cda9b9765ab2304c0308cb2bae752bb33ebe51d83d8741859566c41",
    "0/mixture_gated/trajectory_c1.csv": "79499c1202bfed5397ad400948e6a5185fdf98e8a3e5c1912997acb85acb2c95",
    "0/mixture_gated/trajectory_c1.json": "325aefd0f8d51521a3085cdf727058c599cce3be370536611bbb154f823edecd",
    "0/mixture_gated/trajectory_c2.csv": "e8fd225bdae95a89e4e30dcec12ed3b79ed786240c7003263a9549509b7f7b00",
    "0/mixture_gated/trajectory_c2.json": "e015465a5b389552c4134941a6ca70754d73eed423cf1828951977c7d75c05de",
    "0/mixture_multikernel/manifest.json": "79e78cef7b518b03f08d4678743efcd77df8ccf9a59b04dd7fc8cb52edf71a3d",
    "0/mixture_multikernel/metrics.json": "73a39855a1f7c0d9cd520cf976bc832d6d296e5aa4a889db14467147f0e84b2f",
    "0/mixture_multikernel/trajectory.csv": "5523c6f948d374aa8cafe966a5fe4147fe6b45321e7f56141fba1d51961689bd",
    "0/mixture_multikernel/trajectory.json": "37f923a52faf1cadce57c0a01f785a09472469ce75efa1b767073ec002ba1740",
    "0/quad_chains/baseline.csv": "a6c1a07860852617f3f3b6504bb6dea13d36227aeccd7c16c1b2e47f522c91de",
    "0/quad_chains/baseline.json": "bd131415c76e1c7af7297d952b205d5191086ef9f22c161128ce7b02bfc45da5",
    "0/quad_chains/manifest.json": "faeeed406b18386f3b9df6efcf2c023a0e1ed3a4c175acb0180190125f3aaabf",
    "0/quad_chains/metrics.json": "e51cc220509ba5c73fe3cfe2b3143395dd4c9e27df8192b72ab7d55f304f3515",
    "0/quad_chains/trajectory_c0.csv": "c8ac48fe3e1ba885d03b3a8fe4430b751f1fe47d8ccb28d653d9949f2ff4351d",
    "0/quad_chains/trajectory_c0.json": "e4164b35390c6fc8b8e8e87628a8f4ccbfd2a6d67a1abf3afc7cb0532cb485fd",
    "0/quad_chains/trajectory_c1.csv": "ba2f2322e92f103da184db24a27ae1c752ee4961b3ff8ce59d053f18463cb6cb",
    "0/quad_chains/trajectory_c1.json": "e4164b35390c6fc8b8e8e87628a8f4ccbfd2a6d67a1abf3afc7cb0532cb485fd",
    "0/quad_chains/trajectory_c2.csv": "b73fee8e5bc217ac98361d66162ff586ae32625d9a29fcd7f394e53287c4bd51",
    "0/quad_chains/trajectory_c2.json": "e4164b35390c6fc8b8e8e87628a8f4ccbfd2a6d67a1abf3afc7cb0532cb485fd",
    "0/quad_chains/trajectory_c3.csv": "29c494547bee28d40afa2978751ec472bcc8a5642b68f03f910f143805ed3ed3",
    "0/quad_chains/trajectory_c3.json": "e4164b35390c6fc8b8e8e87628a8f4ccbfd2a6d67a1abf3afc7cb0532cb485fd",
    "7/cmdp_spsa/manifest.json": "868137f9b76ecfbcd810ad8bdca1326e2003c2ec77d6d58ece72c5c58dda187c",
    "7/cmdp_spsa/metrics.json": "d20fce22dba3bdcb93367a65bfc379182d8e4e75db1d992eda02a93a5da5669f",
    "7/cmdp_spsa/trajectory.csv": "e74adee647fab1eb2b78203c804bc6534894ef6043e1de9ad1b4ee4a03a0ba5f",
    "7/cmdp_spsa/trajectory.json": "d2bf0ccccc818059e1df3c1bade5e3d33c58c515e86ff58c926d84ca98db949d",
    "7/compare/compare.csv": "31afe4e8cf6b714ca7fe09aa10372b1fbde9b8abd19b06ec991ad4f5d1329949",
    "7/compare/compare.json": "af1ff22e96d8d14fe852c02c936d53bd154bf5aa967faf729ef74ef246944424",
    "7/mixture_gated/baseline.csv": "b297a06a8fe555e3b6e84ec08a000c5f0e2ab7a4e0a1b5ba90404c38ca59e4ef",
    "7/mixture_gated/baseline.json": "e7e1d35822a500c870cf349893e2abc67bc953f8effed396ad008b83cb2564d9",
    "7/mixture_gated/baseline_density.csv": "1f66af16670b3b9d3cef109f004902530de70019fda48ebc8f4bfcc2ce4e9604",
    "7/mixture_gated/density.csv": "bd948c906fc4f19a90d56c54a2609d0e5ae9dbe0a2529b7553ec9a92b3baeae7",
    "7/mixture_gated/manifest.json": "ce3f14513c2520fde65d0c32819ff42fe6ccdad881fd8bf88ef5e79e08a1d13d",
    "7/mixture_gated/metrics.json": "903b149b131311685305faa08b8189de6161bc3e5c928c7c26963b6b9144b952",
    "7/mixture_gated/trajectory_c0.csv": "f996daf669a8bfdb480489fae8b97c48152f4d8f469f47689679a4697deeb098",
    "7/mixture_gated/trajectory_c0.json": "ddf14a89d0068d4c080f75687229edcec2cb78caa6aa0bb3ff3815503b74f3a6",
    "7/mixture_gated/trajectory_c1.csv": "c052ab895ea3c0cfd345f6a480e8fa4de254174d049c5c07b04a97c8fe8934ff",
    "7/mixture_gated/trajectory_c1.json": "156c111680188a823d047b6de60c04786cea2c3779c6dcf12f8eecb4c89632d4",
    "7/mixture_gated/trajectory_c2.csv": "6e655391b8dddac25c71a5b66a0ae736bf2016f025a2fcd8562aa811bd4b448f",
    "7/mixture_gated/trajectory_c2.json": "06c7191c6218c855a2e9a579d4fd7de1a08d210e1431dadce94e7305c3144549",
    "7/mixture_multikernel/manifest.json": "f39de55ded0eaba7fabb04d31d0eaa8a5e710985986832349aab7b4fb78787c4",
    "7/mixture_multikernel/metrics.json": "9e1196ddc35b7181cbef8c172de69541d3539f5d6223e5e5d5ce10c3b5a1fd48",
    "7/mixture_multikernel/trajectory.csv": "e40f7099fc195908006959a1367d6f627847989ab25a4911bcae6d2ede88c399",
    "7/mixture_multikernel/trajectory.json": "aab76dc86d694b8175b1fb03840292cd345438e1aa7340e264f303df92116993",
    "7/quad_chains/baseline.csv": "539790a8380b9759b46ddfbbc66053abe4f0ed5e8f90360e7ebdb10b5b727f7f",
    "7/quad_chains/baseline.json": "9e86a3d0a6efc6b985bdfd72cbee7e3b680fa74e937866e78d15f5d702d6c896",
    "7/quad_chains/manifest.json": "9b5bbdb77f74307dd4b1db415b5e5722215a54b05afa1c51f401473dca69e577",
    "7/quad_chains/metrics.json": "c0ac0e6ffc13c69ec6eb0d2e44625bc4936dfa89a5f7949fb9e36aa161dbc6ff",
    "7/quad_chains/trajectory_c0.csv": "4460a7ecbdaa506ca82a51590089088e37cf6619c7c9a6eaa5d0b1635328376d",
    "7/quad_chains/trajectory_c0.json": "3f197f6bba9887db6cfb18d60c8744febfc567e35db4bc64e9fb8aac7bf46eb6",
    "7/quad_chains/trajectory_c1.csv": "cb8d01fe6d6ef5e7aa4ef345287466987de68b147f22135f67b2b9a38c5d5da3",
    "7/quad_chains/trajectory_c1.json": "3f197f6bba9887db6cfb18d60c8744febfc567e35db4bc64e9fb8aac7bf46eb6",
    "7/quad_chains/trajectory_c2.csv": "761f39277c82017dafe427d83ee74fd7f5c6d09125d24064926ddbb5e1457065",
    "7/quad_chains/trajectory_c2.json": "3f197f6bba9887db6cfb18d60c8744febfc567e35db4bc64e9fb8aac7bf46eb6",
    "7/quad_chains/trajectory_c3.csv": "750140c7047c0057a2b94971785dc2fb0ccabf2b1730284fea22479c1b158c1f",
    "7/quad_chains/trajectory_c3.json": "3f197f6bba9887db6cfb18d60c8744febfc567e35db4bc64e9fb8aac7bf46eb6",
}


def artifact_bytes(path):
    """The file's bytes, less the wall-clock timings and the output path a rerun may change.

    `metrics.json` and `manifest.json` are hashed as `core.write_json` writes
    them once those fields are gone; every other file is hashed as written.
    """
    if path.name not in ("metrics.json", "manifest.json"):
        return path.read_bytes()
    payload = json.loads(path.read_text())
    payload.pop("timings_seconds", None)
    payload.get("config", {}).pop("output", None)
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def test_bench_artifacts_match_the_digest_table(tmp_path):
    for seed in SEEDS:
        root = tmp_path / str(seed)
        for name in RUNS:
            argv = ["run", str(BENCH_CONFIGS / f"{name}.json"), "--seed", str(seed), "--out", str(root / name)]
            assert main(argv) == 0, argv
        compare = ["compare", str(root / "mixture_gated"), str(root / "mixture_multikernel"),
                   "--out", str(root / "compare")]
        assert main(compare) == 0, compare
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(artifact_bytes(path)).hexdigest()
        for path in sorted(tmp_path.rglob("*")) if path.is_file()
    }
    assert_digest_table(digests, DIGESTS, DIGESTS_NUMPY, DIGESTS_MACHINE)


def assert_digest_table(digests, table, numpy_release, machine):
    """Assert `digests == table`, reporting the rows that changed, appeared or went and both platforms."""
    changed = sorted(key for key in digests.keys() & table.keys() if digests[key] != table[key])
    assert digests == table, (
        f"changed: {changed}; new: {sorted(digests.keys() - table.keys())}; "
        f"gone: {sorted(table.keys() - digests.keys())}. The table was computed with numpy "
        f"{numpy_release} on {machine}; this is numpy {np.__version__} on {platform.machine()}."
    )
