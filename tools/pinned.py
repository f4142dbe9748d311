"""Every pinned CLI request: its argv, exit code and the sha256 of its stdout.

One row per request, in the order of the `pinned` group of
`tools/request_hashes.py`: the `levels`, `sweep` and `green-grid`
examples of the README, then the requests whose bytes the test suite
pins, then the requests the console-script check runs.  `tests/test_cli.py`
runs each row through `cli.main`, and

    python3 tools/pinned.py [COMMAND ...]

runs each row through COMMAND (default: the installed `greenwell`
console script), compares exit code and stdout sha256 with the row's,
prints one line per mismatch and exits 1 if there is one.

A request that exits with a code other than 0 prints nothing, so its
row pins EMPTY.  "CFG" in an argv stands for a file that holds CONFIG.
To change pinned bytes on purpose, edit the row, and cite the
`tools/drift.py` report of the change (see README, "Install and test").
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

# the config file that "CFG" stands for
CONFIG = {"command": "sweep", "family": {"tag": "HO", "scales": {"omega1": 2.0}},
          "window": [0, 5], "step": 0.01, "format": "json"}

# the sha256 of an empty stdout, and of outputs that two rows share
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
_LINEAR_ABS_81 = "84aba58c7a123b916255fbfdba102d99942eea4e704b5352ef9bd6b835bbbe50"
# the |x| well's two levels below rho = 3, in any units of its slope
_LINEAR_ABS_3 = "0b57ad3d9dab8e6db994cbac66f147384fdbf3fac20b835b4002fc0211af3cf8"

_DEC_HO = '{"tag": "DELTA_DECORATED", "base": "HO", "scales": {"delta_position": -0.5}}'
_DEC_LINEAR_ABS = "DELTA_DECORATED(LINEAR_ABS)"
_TAU_1_2 = -1.2 * math.sqrt(math.pi)  # tau = -1.2
# a Stark well whose bottom lies at x = -phi = -12.17
_SHIFTED_STARK = json.dumps({"tag": "HO_STARK", "scales": {"alpha1": 2.3}})
_STIFF_HO = '{"tag":"HO","scales":{"omega1":2000000}}'

# (label, argv, exit code, sha256 of stdout)
PINNED = [
    # the README examples
    ("README-HO", ["levels", "--family", "HO", "--window", "0:6"],
     0, "86b8fff5e87dcf7d72927fe864ed4b8c9bd2b2692ae14789af153022f72932de"),
    ("README-DEC_HO", ["levels", "--family", "DELTA_DECORATED(HO)", "--window=-3:6"],
     0, "d8dcf2f81769a8d0a6d99bf089230c145de6e17342ae0201d08fb85b9db3f7f1"),
    ("README-lam", ["sweep", "--family", "HO_ASYM", "--param", "lam", "--range",
                    "0.2:3.0:0.05", "--allow-breaks"],
     0, "ac0ebd1f8def0cea001ea07a6b7b56805af4aa808f6ebc71850480aad58e9514"),
    ("README-tau", ["sweep", "--family", "DELTA_DECORATED(HO)", "--param", "tau",
                    "--range=-1.2:1.2:0.05"],
     0, "dc3fe8a330751d0f175be05b5ecb0bc5aa780c696f208a7775cf50ed7cce4059"),
    ("README-LINEAR_ABS", ["green-grid", "--family", "LINEAR_ABS", "--energy", "2.3",
                           "--grid=-4:4:81"],
     0, _LINEAR_ABS_81),
    # every well's default window
    *((tag, ["levels", "--family", tag], 0, sha) for tag, sha in (
        ("HO", "bb36703b7355c79d14218e33377ae9d1029ec40a53044b5deb706b3f2ea23188"),
        ("HO_STARK", "4fe5e9abc652745af943f4615f6d6341fc8bf7e21ec83e4fa036ba9104d02f03"),
        ("HO_ASYM", "2b9217dfca62c176d5c243d2cea8187ac9ca6d8d42ab4c36e324b27768628e89"),
        ("LINEAR_ABS", "e801c02d56b0faf43551164fe49c1880b7fbae2cdb2058f9a8301711e82aee5f"),
        ("LINEAR_ASYM", "ecc09074ebf1134bf91d954ae951d9b4d526055718350edaf87849182b77f84e"),
        ("HALF_HO_HALF_LINEAR",
         "a2e3f18bd6e353aa176a437d439b2fc9625b873b8c68d8b189dc3c9d7a6fdb5b"),
        ("HO_PLUS_ABS", "8e8559598c18284f852f3b9c1887818e15ce06da28b6afdff7ee000bb829f7d2"),
        ("DELTA_DECORATED(HO)",
         "1d9d3716b560712c9f1e1beb4b1d31db5223d4be7fec22138fe792c3ef48f995"),
        (_DEC_LINEAR_ABS, "48a282d5997e1fe617e365e201e2b6f614d19e5d613dc1c76453ac03cde3e703"))),
    ("muphi", ["sweep", "--family", "HO_PLUS_ABS", "--param", "muphi", "--range",
               "0.5:1.5:0.25", "--window", "0:5", "--allow-breaks"],
     0, "126209fea027f3d39b9e5105ed8d8818cde1c5aca883dff91153af475f77807f"),
    # HO levels 0.5, 1.5 and 2.5 share one lattice cell of step 5
    ("step5", ["sweep", "--family", "HO_ASYM", "--param", "lam", "--range", "1:1.05:0.05",
               "--window", "0:3", "--step", "5"],
     2, EMPTY),
    # green-grid in both formats: on -2:2:9, which holds x = 0 and q = +-0.5,
    # then README-size grids and an xp = -0 column
    *((f"{label}-{fmt}", ["green-grid", *argv, "--format", fmt], 0, sha)
      for label, argv, shas in (
          ("HO", ["--family", "HO", "--energy", "2.3", "--grid=-2:2:9"],
           ("4c7fc06ed176885f5a5be49734055e9163635f326e46e9126dc2255040cafcef",
            "fafb29321df963915e1e5088d3bfeebb26ef81cbed7e1681c53e1d6543ab9bbd")),
          ("HO_STARK", ["--family", "HO_STARK", "--energy", "2.3", "--grid=-2:2:9"],
           ("0ee166d0b07745b7947e2b5902fe1c9ff9b6ce97c7054d168de3753f960547ca",
            "a8bd65817ab84cdb02c92a864803c89f1776c43cfb700f6ef1061a30b198ca45")),
          ("LINEAR_ABS", ["--family", "LINEAR_ABS", "--energy", "1.7", "--grid=-2:2:9"],
           ("ac1cb88dd48ef644200acce8867afc620fe83ab464734f982233d1fd851d8bb7",
            "14ad5ae10fc2ac804882f6ee2f23112935ff64d7032db29df4091d896ab3b45e")),
          ("HO_PLUS_ABS", ["--family", "HO_PLUS_ABS", "--energy", "2.3", "--grid=-2:2:9"],
           ("5dd2b97827e3508c982d6e27737c000810e51a12296acd5e1ddeb954b2775c7a",
            "1b48b754c594a226ae94eb95bcb0190d7f1fecd4d61786e1bb5f8e8cfab65348")),
          ("DEC_HO", ["--family", _DEC_HO, "--energy", "2.3", "--grid=-2:2:9"],
           ("1abf2d461b0184b5922505efb73cb0c8716f4eaf07c694ef58b908f5b5d7b57d",
            "6edc13205cc27d9715c6cbe522a02f74717d25ad5c8095edb822a3aa403ae7ad")),
          ("DEC_LINEAR_ABS", ["--family", _DEC_LINEAR_ABS, "--energy", "1.7", "--grid=-2:2:9"],
           ("146e0cf4b304593eeb1eeb8e4cafd5b0baf2a14fbde6bb55e02714b02873adf3",
            "c2898a38612f2adcbaf8cc39230396b16b7781df5029a0a2aa812004e4ab8e36")),
          ("LINEAR_ABS-81", ["--family", "LINEAR_ABS", "--energy", "2.3", "--grid=-4:4:81"],
           (_LINEAR_ABS_81,
            "586426593f91dc7fa47994f3ad011c3ee81f54eab5014c6129f76d5b3099696e")),
          ("DEC_HO-81", ["--family", "DELTA_DECORATED(HO)", "--energy", "2.3",
                         "--grid=-4:4:81"],
           ("45aca006a0c14d8889fbde89286579666dcda100a3c92398179ac83b72ee2c15",
            "9564749cd77f9d4e1d63ee0346e3cecb588ef609089af9f3c4a60b379c1c5671")),
          ("HO-xp-0", ["--family", "HO", "--energy", "2.3", "--grid=-2:2:9", "--xp=-0"],
           ("19d4004f54215043eb9ba3509b4b86bf3340d5f6a06ef88949fb45b9ddf11540",
            "205445f7d5f9009e84865cb5b0b316d57137d3577a58968dc38e4d46a74b6e53")))
      for fmt, sha in zip(("csv", "json"), shas)),
    ("table1", ["table1"],
     0, "2d9ea3c045af3fd76bd51b8ac8801f01707e2e6b8bc1425d73cb80e941cd3e2a"),
    # window-less levels, then verify --k 6 --n-oracle 1000, of delta wells
    # whose ground state lies near the free-delta energy floor
    *((f"floor-{label}", [*argv, "--family", json.dumps(fd)], 0, sha)
      for label, fd, shas in (
          ("HO-p0", {"tag": "DELTA_DECORATED", "base": "HO",
                     "scales": {"delta_strength": _TAU_1_2, "delta_position": 0.0}},
           ("65062ff838a072aa37bc9b17555491576133d0a76cb271a49f7a2311f1328fc2",
            "a115ae79e2cdcabf15bb05f71b7be95263e5250dc78b751ba388d1d3929f54fe")),
          ("HO-q0.7", {"tag": "DELTA_DECORATED", "base": "HO",
                       "scales": {"delta_strength": _TAU_1_2, "delta_position": 0.7}},
           ("830dc6a5c6bb52c4e45abf12308850bc6d6f2d90e88a74e899008d7760bf8b72",
            "2f6877c04b0df76cdda4c332515edbeadba12d6c9301575d1842b6aab6ed9012")),
          ("LINEAR_ABS", {"tag": "DELTA_DECORATED", "base": "LINEAR_ABS",
                          "scales": {"delta_strength": -1.6}},
           ("e30367f26a6cb8d5745a36d4085700716e40a0a07c380b840919bf88df24d2d1",
            "4990a0f74d1cad8a371fecab3217df7632697180945212e4016b85499c566e40")))
      for argv, sha in zip((["levels"], ["verify", "--k", "6", "--n-oracle", "1000"]), shas)),
    ("DEC_LINEAR_ABS-q1.5", ["levels", "--family", json.dumps(
        {"tag": "DELTA_DECORATED", "base": "LINEAR_ABS",
         "scales": {"delta_strength": -1.6, "delta_position": 1.5}})],
     0, "b0ca4b58aa2d1fc07204c36d8b68e8fe9479f6da32cbe94469c16a6415252cb4"),
    ("all", ["verify"],
     0, "7537c454006f034223acb55b3480febd8bdf1b299a75bedd0553d806d88002f2"),
    # --dump-config for every flag, --config and --set
    *((f"{k:02d}", [*argv, "--dump-config"], 0, sha) for k, (argv, sha) in enumerate((
        (["levels"], "6badfb52df1a77bb608837f8c24566d691ee484a79febe5f25c7ab0b719aa683"),
        (["levels", "--family", "LINEAR_ABS", "--window=-1:5", "--step", "0.01",
          "--format", "json", "--out", "rows.json"],
         "e295886451ffe238e5df50d938b285233c12ffaee3b08702a8fe724758f3fd0d"),
        (["sweep", "--family", "HO_ASYM", "--param", "lam", "--range", "0.2:3:0.05",
          "--allow-breaks"],
         "81933f54adf2a9cf4803fb03cf9a94e84f62104cbe00c041be35c76af855eb65"),
        (["green-grid", "--family", "DELTA_DECORATED(HO)", "--energy", "2.3",
          "--grid=-4:4:81", "--xp", "0.3"],
         "5924cf18ee2a89346a092dc327f6365caa84a2f3d4978d7fa1dac242c85b4226"),
        (["verify", "--family", "HO", "--k", "3", "--n-oracle", "1000"],
         "e51ecf4170872bbb0c145e19bb2b73508ce2e88e3c003fe43d8a87516fa09d48"),
        (["verify", "--family", _DEC_LINEAR_ABS],
         "993bc121910fbc4c3d0f66876030370f5e1711f6b5f24cd9d4b24409398cd8d8"),
        (["table1"], "f6ad54c642a2d071dab374eb403a084adf577aef49de6cfd1f4153a83171f591"),
        (["levels", "--config", "CFG"],
         "b652f8a66d7e5df924c94fbe5b77c4c907fc0d945af7d02c2fe69a730908f68a"),
        (["levels", "--config", "CFG", "--family", "HO_STARK",
          "--set", "family.scales.alpha1=0.5", "--set", "k_levels=4"],
         "a8ae35b6fdee8b0c9fd1989c561addcfd94396c424b590389ce03123bec45cec"),
        (["green-grid", "--family", '{"tag": "HO_ASYM", "scales": {"omega2": 2}}',
          "--set", "grid=[-1, 1, 5]", "--set", "energy=3"],
         "146d017e79d547fbf0832c534d3f803f3d125fbdf9f25b7c3883307df9437c67")))),
    ("STARK-shifted", ["verify", "--family", _SHIFTED_STARK],
     0, "c7de96d60d1fff9eb39f8f62b927cd1271ebe0e2855f9044523d3eb18cae52be"),
    ("STARK-shifted", ["levels", "--family", _SHIFTED_STARK, "--window=-80:-70",
                       "--step", "5"],
     2, EMPTY),
    # green-grid tails on the integral routes of pcf_d and airy_all
    ("HO-tail", ["green-grid", "--family", "HO", "--energy", "2.3", "--grid=0:10:11",
                 "--xp", "0"],
     0, "3dddac983f37ef6574d30d8c80cc90282b13379cd11cffea1d06c6219f04d72d"),
    ("LINEAR_ABS-tail", ["green-grid", "--family", "LINEAR_ABS", "--energy", "1.5",
                         "--grid=0:20:5", "--xp", "0"],
     0, "906db4ee7a6be747b596dd5d4960f0e11943936aeab50c40dbb999e4bdd4402a"),
    ("HO-cut", ["green-grid", "--family", "HO", "--energy", "2.3", "--grid=4.3:4.9:4",
                "--xp", "0"],
     0, "27ac813e268d82a0af15222f7b8708af1a5f77814e6c4567905ed8ac9e29b4cb"),
    # index counts from the lowest level in the window, not from n = 0
    ("HO-index", ["levels", "--family", "HO", "--window", "3:6"],
     0, "386737fa0d89b5e6872d0395bc1bb7ef09db5b76fe0492173af1b25974a2f285"),
    ("DEC_HO-81-CI-csv", ["green-grid", "--family", "DELTA_DECORATED(HO)", "--energy", "2.3",
                          "--grid=-2:2:81", "--format", "csv"],
     0, "9255d754ca0f9bf96316abfcdfe746040ea16144c3adf4b69c1b93c5c00c920f"),
    ("DEC_HO-81-CI-json", ["green-grid", "--family", "DELTA_DECORATED(HO)", "--energy",
                           "2.3", "--grid=-2:2:81", "--format", "json"],
     0, "ab3415a23c601a1f06327b452d5f02860852147f6537d961cf7c42e74be80d51"),
    # a ground state below the default window's low edge eps = -50
    ("DEC_HO-deep", ["levels", "--family", json.dumps(
        {"tag": "DELTA_DECORATED", "base": "HO", "scales": {"delta_strength": -10.5}})],
     0, "537a70f149d9d7a7de718110e1ee1d3e618176e57777cc4ba9e273b74699a512"),
    # the console-script check's requests
    ("HO-k3", ["verify", "--family", "HO", "--k", "3"],
     0, "b23f9eeaa12c62aade63731ecdc2e98d0516fd70e0acb3b6161c7976d34ab171"),
    ("HO_STARK-5", ["green-grid", "--family", "HO_STARK", "--energy", "2.3", "--grid=-2:2:5"],
     0, "d8b1ccf8e727fb311ba26c0eca9fd2708d5816ac133e69f82169e510b405d7dd"),
    ("HO_PLUS_ABS-5", ["green-grid", "--family", "HO_PLUS_ABS", "--energy", "2.3",
                       "--grid=-2:2:5"],
     0, "37ccfcfe0c39a7f0c96b14861fd69f8ae2513950be1117f550746f2f9d186c47"),
    # over-bound requests exit 1 before any chi call: 1,000,000,001 lattice
    # points; a floor of -inf; 30,001 xi values of 2,401 points each
    ("HO-step-1e-9", ["levels", "--family", "HO", "--window", "0:1", "--step", "1e-9"],
     1, EMPTY),
    ("DEC_HO-floor-inf", ["verify", "--family", '{"tag":"DELTA_DECORATED","base":"HO",'
                          '"scales":{"delta_strength":-1e160}}', "--k", "1"],
     1, EMPTY),
    ("xi-ends", ["sweep", "--family", '{"tag":"HALF_HO_HALF_LINEAR","scales":{"alpha1":0.25}}',
                 "--param", "xi", "--range", "0.5:0.59:0.000003"],
     1, EMPTY),
    # a scan that leaves the Airy domain |x| <= 25
    ("LINEAR_ABS-30", ["levels", "--family", "LINEAR_ABS", "--window", "0:30"],
     1, EMPTY),
    # D and D' from one Kummer pass: 35 HO+|x| levels up to eps = 40
    ("HO_PLUS_ABS-40", ["levels", "--family", "HO_PLUS_ABS", "--window=0.000001:40"],
     0, "6ff81eef96c12f600280e4abcc435e2ab6dd8f0529956bf97bbf67de86e102b2"),
    ("muphi-0.8", ["sweep", "--family", "HO_PLUS_ABS", "--param", "muphi", "--range",
                   "0.8:1.1:0.1", "--window", "0:6"],
     0, "a82a216ef6b1b31e713e81f12aade2c155ca7570c32002379c74921f75ef904f"),
    # D' at orders up to 59.95, past which the slope's D_(nu+1) lies
    ("HO_PLUS_ABS-nu60", ["levels", "--family", '{"tag":"HO_PLUS_ABS","scales":{"alpha1":1.62}}',
                          "--window", "50:51.4"],
     0, "66c095cc79f457155a243347e86efe09ed8fbae5fdeffb2da9e3477196ab0235"),
    # ten Stark levels whose chi takes 1/Gamma past order 141.5
    ("HO_STARK-gamma141", ["levels", "--family", '{"tag":"HO_STARK","scales":{"alpha1":6}}',
                           "--window=-23176:-23166"],
     0, "a14340615b6acb800ee8a71b1e0a7ae7c5b8ab12c0dc3966acb4d73d470d2a1a"),
    # 1/Gamma below the float range is a numerical failure
    ("HO-rgamma-underflow", ["levels", "--family", "HO", "--window=-200:-180"],
     2, EMPTY),
    # a level-count wall near 1.0e7, where floats lie wider than a root bracket
    ("LINEAR_ABS-wall-1e7", ["levels", "--family",
                             '{"tag":"LINEAR_ABS","scales":{"alpha1":0.01}}', "--window", "0:3"],
     0, _LINEAR_ABS_3),
    # a stiff oscillator whose first FD level lies past 2^19, at a fine
    # grid and at the default one
    ("HO-stiff-n200000", ["verify", "--family", _STIFF_HO, "--k", "1",
                          "--n-oracle", "200000"],
     0, "c8c5a6adabef45f074dc570730d7920a1fb633ab4d50b58e128ce85fcd9e1fbf"),
    ("HO-stiff", ["verify", "--family", _STIFF_HO, "--k", "1"],
     0, "3ffe318f0f65f0b7ad58d13cce89169326c84a93910c1d714ab72ab4bfd426b7"),
    # alpha1^3 underflows to 0: no finite FD wall, so the scan goes uncounted
    ("LINEAR_ABS-tiny", ["levels", "--family", '{"tag":"LINEAR_ABS","scales":{"alpha1":1e-110}}',
                         "--window", "0:3"],
     0, _LINEAR_ABS_3),
    # 13 x 13 grids out to mu x = 8.5-9.9, on both routes of D_nu
    ("HO-13", ["green-grid", "--family", "HO", "--energy", "2.3", "--grid=-6:6:13"],
     0, "ca735814f0ce329f19d256f3ca1f4b284ab3c8ab9173470b5cb1d69bc571dc5d"),
    ("HO_STARK-13", ["green-grid", "--family", "HO_STARK", "--energy", "2.3",
                     "--grid=-6:6:13"],
     0, "30159ac1d7789f6587dee74d7df10839acb34cc95bc159e7548ca58ae7e190d2"),
    ("HO_PLUS_ABS-13", ["green-grid", "--family", "HO_PLUS_ABS", "--energy", "2.3",
                        "--grid=-6:6:13"],
     0, "79ede66d474802ee6f2bdadefa05189d1d7084b00dffbe8257c219d4f055a122"),
    ("DEC_HO-13", ["green-grid", "--family", "DELTA_DECORATED(HO)", "--energy", "2.3",
                   "--grid=-6:6:13"],
     0, "3f7752221ae36871413f1af90043fbcbdb6d5312efeda4cd6aad8ea94f58f4bb"),
]


def request_ids():
    """The request id of each row, as `tools/request_hashes.py` prints it."""
    return [f"pin.{i:02d}.{'dump-config' if '--dump-config' in argv else argv[0]}.{label}"
            for i, (label, argv, _, _) in enumerate(PINNED)]


def with_config(argv, config_path):
    """`argv` with "CFG" replaced by config_path."""
    return [str(config_path) if a == "CFG" else a for a in argv]


def main(argv=None):
    command = (sys.argv[1:] if argv is None else argv) or ["greenwell"]
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.json"
        config.write_text(json.dumps(CONFIG))
        for rid, (_, args, code, sha) in zip(request_ids(), PINNED):
            done = subprocess.run([*command, *with_config(args, config)],
                                  capture_output=True, timeout=120)
            got = (done.returncode, hashlib.sha256(done.stdout).hexdigest())
            if got != (code, sha):
                mismatches += 1
                print(f"{rid}: exit {got[0]}, sha256 {got[1]}; pinned exit {code}, "
                      f"sha256 {sha}", flush=True)
    print(f"{len(PINNED) - mismatches} of {len(PINNED)} pinned requests match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
