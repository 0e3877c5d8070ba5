"""Byte-golden artifacts: each bundled scenario, run at its own seed, must
write exactly these bytes, whichever kernel backend and Python version runs
it. ``manifest.cfg`` is left out because it records the output directory.
"""

import hashlib
from pathlib import Path

import pytest

from proxileak.config import parse_scenario
from proxileak.runner import run_scenario

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = {
    "localize_bcn": {
        "localize_trials.csv": "f97f59cf16138e045dedd993eeebe971d0b05941bd29b51807f100f8f2fcf42b",
        "probe_map.svg": "cdb6a22c01eeac2039c78dd8950d905218755572d47bba29332bc75de58fc69e",
        "samples.csv": "28dc9bb56cc64059f51e4def53386a27f1ee78ae817d2545381549b0771849f8",
        "summary.csv": "dad490a22578087413453016aac6a359f78af989eff1b845d0956d73c954ae15",
        "trace_labels.csv": "4d8af05085ff5238e0b6393cd767d15bd62d4c63475dabc265bf8396c03fce3b",
        "violations.csv": "2c941062e7c414720181dbdf7e73c1f60c08c6c77c46d38144d7e455481b68fa",
    },
    "track_commuter": {
        "pois.csv": "7e9b463be29fe1fd0a244cb0f7d1b42f671b8d24703ec3c2e7e85998ab211525",
        "summary.csv": "e45101e44735c4ce1edd7bd2aa5b06e5b0dd702d0390889ca2d98a50a12dad65",
        "trace_labels.csv": "34c7c4a2c7a4b0d01944b4fbd1f248141c31788e9d3da7498f2ecf4f8500476d",
        "track.csv": "0d937d12f732a7471907d57b9b5f84b9355e79faa483324c6720e47d3f8312a7",
        "violations.csv": "5d01afe2164718b3363c7b7f3b0e1168cd454887d10ab52072204e99e560d348",
    },
    "identify_zipf": {
        "identification.csv": "6b865b229394b277abd90cc0d26276e32bc27d8cf85ee2f9d6cb1779eb170857",
        "pool_sizes.csv": "f82e503f65196ad6f23116db855cea7ad5e3918de939a43c396cac0efa625dcc",
        "pool_sizes.svg": "77b95298a0ccbeb144d986a7a7ce916e1a66549a8b08f96507fe339d32312aa9",
        "summary.csv": "01d15f8a8bd93b8dec701cb4bb8f47aefdd298c776f6ccb1c998c084cd60b37e",
        "trace_labels.csv": "867527d97fd3053f2d887a3fde25fd70826bb64757556ce625b20755d291f46c",
        "violations.csv": "a49d27c7078b24b49221f60d9fcfaa17d21cfa8cf044ce22a0d340520dcbe249",
    },
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_bundled_scenario_artifacts_are_byte_golden(scenario, tmp_path):
    cfg = parse_scenario(ROOT / "scenarios" / f"{scenario}.cfg")
    run_scenario(cfg, tmp_path)
    digests = {p.relative_to(tmp_path).as_posix():
               hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.rglob("*")
               if p.is_file() and p.name != "manifest.cfg"}
    assert digests == GOLDEN[scenario]
