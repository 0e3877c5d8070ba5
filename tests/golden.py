"""Byte-golden artifacts: each bundled scenario, run at its own seed as
bundled and with the overrides that reach its non-default paths, must write
exactly these bytes, whichever kernel backend and Python version runs it.
``manifest.cfg`` is pinned like every other artifact: it holds the resolved
configuration and nothing about where the run wrote. The
``distance_quantum_m`` sweep over ``localize_bcn`` pins the sweep-level
files the same way.

``tests/test_golden.py`` checks these cases under pytest. To check them
under an interpreter without pytest, run from the repository root::

    PYTHONPATH=src python tests/golden.py

It prints one line per case, then a summary line that names the Python
version and the solver kernel backend it ran, and exits with status 1 on
any mismatch.
Given interpreter paths, it re-runs itself under each one instead and
prints each interpreter's summary line, after the lines of any case that
failed there::

    PYTHONPATH=src python tests/golden.py /path/to/python3.10 /path/to/python3.13
"""

import hashlib
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

from proxileak.config import parse_scenario
from proxileak.mlat import backend_name
from proxileak.runner import run_scenario, run_sweep

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = {
    "localize_bcn": {
        "localize_trials.csv": "f97f59cf16138e045dedd993eeebe971d0b05941bd29b51807f100f8f2fcf42b",
        "manifest.cfg": "152a682cd50ba6a39dc6155148201406697fc85d88b5d87a5e0ad9880fd35436",
        "probe_map.svg": "cdb6a22c01eeac2039c78dd8950d905218755572d47bba29332bc75de58fc69e",
        "samples.csv": "28dc9bb56cc64059f51e4def53386a27f1ee78ae817d2545381549b0771849f8",
        "summary.csv": "dad490a22578087413453016aac6a359f78af989eff1b845d0956d73c954ae15",
        "trace_labels.csv": "4d8af05085ff5238e0b6393cd767d15bd62d4c63475dabc265bf8396c03fce3b",
        "violations.csv": "2c941062e7c414720181dbdf7e73c1f60c08c6c77c46d38144d7e455481b68fa",
    },
    "track_commuter": {
        "manifest.cfg": "d055034bd3f352a93433ef90f462938a7a83b1c06070eabbf098b8781a95f2e7",
        "pois.csv": "7e9b463be29fe1fd0a244cb0f7d1b42f671b8d24703ec3c2e7e85998ab211525",
        "summary.csv": "e45101e44735c4ce1edd7bd2aa5b06e5b0dd702d0390889ca2d98a50a12dad65",
        "trace_labels.csv": "34c7c4a2c7a4b0d01944b4fbd1f248141c31788e9d3da7498f2ecf4f8500476d",
        "track.csv": "0d937d12f732a7471907d57b9b5f84b9355e79faa483324c6720e47d3f8312a7",
        "violations.csv": "5d01afe2164718b3363c7b7f3b0e1168cd454887d10ab52072204e99e560d348",
    },
    "identify_zipf": {
        "identification.csv": "6b865b229394b277abd90cc0d26276e32bc27d8cf85ee2f9d6cb1779eb170857",
        "manifest.cfg": "3f94dcfe6c6cd559c4270becbe5942678761574e17d11910dbc67bdbdc3c6966",
        "pool_sizes.csv": "f82e503f65196ad6f23116db855cea7ad5e3918de939a43c396cac0efa625dcc",
        "pool_sizes.svg": "77b95298a0ccbeb144d986a7a7ce916e1a66549a8b08f96507fe339d32312aa9",
        "summary.csv": "01d15f8a8bd93b8dec701cb4bb8f47aefdd298c776f6ccb1c998c084cd60b37e",
        "trace_labels.csv": "867527d97fd3053f2d887a3fde25fd70826bb64757556ce625b20755d291f46c",
        "violations.csv": "a49d27c7078b24b49221f60d9fcfaa17d21cfa8cf044ce22a0d340520dcbe249",
    },
}


# Non-default paths: (scenario, overrides) -> artifact digests.
OVERRIDE_GOLDEN = {
    ("localize_bcn", "probe_strategy=adaptive,trials=3"): {
        "localize_trials.csv": "46c21dbb0fad077ed01255d408332bb7680ac5bf05cad360f4dc81ad602b6e6e",
        "manifest.cfg": "131b32b43dc24f7f710fe231588cfa63c21491b2314a53f02d05bc593a9e5fe9",
        "probe_map.svg": "a75b961c09d5e3aad162310d583492e937a1836169c18ccef451bcd927dc17e5",
        "samples.csv": "3fff04f50c7257f89c5761257104d00df11302fff53d5f9ad193154219d671c4",
        "summary.csv": "9a71e6b62ef0fd2686d17fa0a3127a3703c3243bd7e85828416886ba554273a9",
        "trace_labels.csv": "4d8af05085ff5238e0b6393cd767d15bd62d4c63475dabc265bf8396c03fce3b",
        "violations.csv": "2c941062e7c414720181dbdf7e73c1f60c08c6c77c46d38144d7e455481b68fa",
    },
    ("track_commuter", "trajectory=random_walk,probe_strategy=adaptive"): {
        "manifest.cfg": "f48b88a7eadb607b3976b1d22911e02c7f86ed348eb95099bad2dcd9c3ba6882",
        "pois.csv": "c639a83cfa9ad0755163c69cbb4a9524a337f7293fb8747fc1d322da30885b28",
        "summary.csv": "b2ad8856cb2763bd1b58259368d36da70f8c558d06fc4848b5dcb7f05f0c34f4",
        "trace_labels.csv": "34c7c4a2c7a4b0d01944b4fbd1f248141c31788e9d3da7498f2ecf4f8500476d",
        "track.csv": "a895383c5198ae98f5536f2242826b761d78112de2cef6c6c902a42037180de5",
        "violations.csv": "5d01afe2164718b3363c7b7f3b0e1168cd454887d10ab52072204e99e560d348",
    },
    ("localize_bcn", "solver_norm=l2"): {
        "localize_trials.csv": "07d718aa1dd6fb99ba7e959b7a8df865b5054b0dde2c61b9d346d65125b49f28",
        "manifest.cfg": "65c83c52c209b82edad9c0d7bea97bfcb87332075b0a67f9f66ebb22b78d5421",
        "probe_map.svg": "6903b70ab136037ea5e7b429077cb30ad53321d2df000a1c2a3aaa08a99fb53b",
        "samples.csv": "28dc9bb56cc64059f51e4def53386a27f1ee78ae817d2545381549b0771849f8",
        "summary.csv": "f760cb14b6d8509a5ad9e596637f8a8f8796ae9e4e31a9f2c3d16b35a36ec330",
        "trace_labels.csv": "4d8af05085ff5238e0b6393cd767d15bd62d4c63475dabc265bf8396c03fce3b",
        "violations.csv": "2c941062e7c414720181dbdf7e73c1f60c08c6c77c46d38144d7e455481b68fa",
    },
    ("identify_zipf", "birthdate_mode=exact"): {
        "identification.csv": "403cf4d0f3a3297491c78b1d9d8cf5c6d043b86e1994b707159141eee79e6d79",
        "manifest.cfg": "3c61a4b0f90c53a1966ce3568399b5c75c3b4c8f559001c81815e6a9b27d829f",
        "pool_sizes.csv": "7bb04a4b6822a19a7c2fc3d2ac3c57fd4be073195735900f66b32d997f726921",
        "pool_sizes.svg": "77b95298a0ccbeb144d986a7a7ce916e1a66549a8b08f96507fe339d32312aa9",
        "summary.csv": "74d0e93edf68e8a9a6e5ed6e66e7683c0f5a4cf8506c237219740dfd31e65d23",
        "trace_labels.csv": "ec170323eb8ade071669da10367ecc66340386c52dfc6ee383d056f761e48226",
        "violations.csv": "61cd9c3b2ee8d93ab5d56a79810f6d4fceee7fd4e0278c38db0de883521f35a3",
    },
    ("identify_zipf", "interests_mode=hidden"): {
        "identification.csv": "e407f464f94a75bbbd72da7739da8e28f0af2ade8a44ca70d2213e49ee795ba3",
        "manifest.cfg": "80403fd277994fddde3764657c71753e0ab6bafd74c143fc52b33f82451bbcb1",
        "pool_sizes.csv": "e5dd6a0a580edfe08274ca20ec51066818804da526b5dc68d7894676c2bc29e0",
        "pool_sizes.svg": "6fc94c1bbd96b73ccbea187859826e262cd777de97dcf0c480eeca7137e71463",
        "summary.csv": "1c502b8444995082b01a93cc88b938120c2ad9ea33e6737bb1377bac33e5e8ba",
        "trace_labels.csv": "887b38fa26a488ed6e8104eea8eaa92ad5b4e8df0dc35122becbf6061b592284",
        "violations.csv": "d7b6094c229da9f256280c8f4f04803a14bb6c8c5915a8f6ee9ecf1c1deac2cd",
    },
    ("identify_zipf", "interests_mode=categories"): {
        "identification.csv": "e407f464f94a75bbbd72da7739da8e28f0af2ade8a44ca70d2213e49ee795ba3",
        "manifest.cfg": "ed358b0bdb07e7d1c760bc064b3afa2a86f4cd069eff41657f2faa2dc7ebf678",
        "pool_sizes.csv": "e5dd6a0a580edfe08274ca20ec51066818804da526b5dc68d7894676c2bc29e0",
        "pool_sizes.svg": "6fc94c1bbd96b73ccbea187859826e262cd777de97dcf0c480eeca7137e71463",
        "summary.csv": "1c502b8444995082b01a93cc88b938120c2ad9ea33e6737bb1377bac33e5e8ba",
        "trace_labels.csv": "887b38fa26a488ed6e8104eea8eaa92ad5b4e8df0dc35122becbf6061b592284",
        "violations.csv": "d7b6094c229da9f256280c8f4f04803a14bb6c8c5915a8f6ee9ecf1c1deac2cd",
    },
    ("identify_zipf", "policy_preset=happn"): {
        "identification.csv": "5c685668510f6f61e7abb95dc465ff21d7ae3486055c0448488cdd7fb5790c3d",
        "manifest.cfg": "d4cfa7354062854a4fd64fe94aaaa96697bbbee227e453f2e8f7e8cea7761ddc",
        "pool_sizes.csv": "179e8ed5021ac09be5be34af78c7c259b5818375c74f184aeec9edc3233152fa",
        "pool_sizes.svg": "6fc94c1bbd96b73ccbea187859826e262cd777de97dcf0c480eeca7137e71463",
        "summary.csv": "15599f113c27f94f39a9bf85aa4aabbac583ba658d745a2fec1d033b72827419",
        "trace_labels.csv": "b1b3dd8b9b19e98210e25917b396cd258b2791c4e1b5da42a462d2a2bf2a82ee",
        "violations.csv": "2163cdc84afcba04862fb617247611fa88bf8b1571b5d137d412beb6a4bc1e29",
    },
    # The size of the benchmark's identify_crowd workload.
    ("identify_zipf", "n_users=20000,identify_victims=20"): {
        "identification.csv": "ffc90ecd80c9a94ba514bd345c4870a9aaf416689d962ad31028fc4d05c03e24",
        "manifest.cfg": "489119bf1b267183dbdba528ef4fbae997e7995ca3578aa77f740b4c855c0376",
        "pool_sizes.csv": "646211c1aef4d965d46c70764e471365c4e08eb5bf91947e55957720c9cd43e7",
        "pool_sizes.svg": "0d9887766eb8b5450175365ce07c42ddb64bdc29478ce87155698ee14057d57b",
        "summary.csv": "12ddaa50593b4951495361f038943e15d74e55aad9361b2c65525713997840ad",
        "trace_labels.csv": "67c72fa219805f92667881d3178aa625164c79116796e9e9b3ae152b8acec4b4",
        "violations.csv": "1be35d77ec7f4e9cb8f4da28c697c7ad43dcb686352a2a3973742fa98681b30a",
    },
    ("identify_zipf", "policy_preset=grindr"): {
        "identification.csv": "cad33c2b72692bdaddedb49d2a1059f9fea4934bc513026a5b508b7e0e32c941",
        "manifest.cfg": "da0f106dd48dbd265b2d1aef1964cd1b25426955cbc963e389ad5b78126492cd",
        "pool_sizes.csv": "1b8de65389561add1a149dcecff3b193d93586105222c3422c0ea395f99622a2",
        "pool_sizes.svg": "52c1916d97de83731378bcbe825acc6b0c63fc16477eff1bc9a35fa9917ec77b",
        "summary.csv": "0edf1fe77519b4f97bf415adfbf8d15b49c62b5ce44088b8a5024b29b9fcf06f",
        "trace_labels.csv": "f76da370f4b413cdecf9068f49d6b1d43fb4b6000abbeb20b79dbffb6acb8907",
        "violations.csv": "d582980c651132d4dd589d53aa927b550a0e92d9494882d6a2c740d0758ccea5",
    },
}


SWEEP_GOLDEN = {
    "error_vs_quantum.csv": "4ffba2273b5b0ca61521d93899f1653d5cba272e94ea2daf26c086b740ff294f",
    "error_vs_quantum.svg": "3b36a6dc54e4a3feca28ed29bdb44588618fa8ab885c8c8e772b63e6aa49aaec",
    "sweep.csv": "f1b7c377f2b667df8b6ef1c060afa08515960402ef83cd252db8af05d4dc22ab",
}


def parse_overrides(text):
    """``"k=v,k2=v2"`` (an ``OVERRIDE_GOLDEN`` key) as a ``--set`` dict."""
    return dict(item.split("=") for item in text.split(","))


def _digests(files, root):
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files if p.is_file()}


def run_digests(scenario, overrides, out):
    """Digests of every artifact one run of ``scenario`` writes to ``out``."""
    cfg = parse_scenario(ROOT / "scenarios" / f"{scenario}.cfg", overrides)
    run_scenario(cfg, out)
    return _digests(out.rglob("*"), out)


def sweep_digests(out):
    """Digests of the sweep-level files of the ``SWEEP_GOLDEN`` sweep."""
    cfg = parse_scenario(ROOT / "scenarios" / "localize_bcn.cfg")
    run_sweep(cfg, "distance_quantum_m", ["10", "50", "100"], out)
    return _digests(out.iterdir(), out)


def run_under(interpreters):
    """This script under each interpreter in turn; 1 if any run failed."""
    failed = 0
    for exe in interpreters:
        proc = subprocess.run([exe, __file__], capture_output=True, text=True)
        out = proc.stdout.splitlines()
        if out and out[-1].startswith("python "):
            summary = out[-1]
        else:  # it stopped before the summary: show why
            summary = (proc.stderr.splitlines()
                       or [f"exit status {proc.returncode}"])[-1]
        for line in [line for line in out if line.startswith("FAIL")]:
            print(line)
        print(f"{exe}: {summary}")
        failed += proc.returncode != 0
    return 1 if failed else 0


def main():
    if sys.argv[1:]:
        return run_under(sys.argv[1:])
    cases = [(s, partial(run_digests, s, {}), GOLDEN[s]) for s in sorted(GOLDEN)]
    cases += [(f"{s} {o}", partial(run_digests, s, parse_overrides(o)),
               OVERRIDE_GOLDEN[s, o])
              for s, o in sorted(OVERRIDE_GOLDEN)]
    cases.append(("localize_bcn sweep distance_quantum_m=10,50,100",
                  sweep_digests, SWEEP_GOLDEN))
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, run, expected) in enumerate(cases):
            got = run(Path(tmp) / str(i))
            bad = sorted(k for k in expected.keys() | got.keys()
                         if got.get(k) != expected.get(k))
            print(f"{'FAIL' if bad else 'ok':4}  {label}"
                  + (f": {', '.join(bad)}" if bad else ""))
            failed += bool(bad)
    print(f"python {sys.version.split()[0]} {backend_name()}: "
          f"{len(cases) - failed}/{len(cases)} cases byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
