"""Golden bytes of campaign reports.

Each case is one campaign config, and its digest is the SHA-256 of the
report's `to_json_bytes()`.  The cases cover every target at seeds 1 and 2
with default settings (the theorems need `r_d`; weil runs at q_max = 31 to
save time), plus the branches the defaults do not reach.  A change to the
campaign layer that should leave reports byte-identical must keep every
digest here.  Empty campaigns are left out: their notes are covered in
test_campaigns.py.

The digests pin this environment: Python 3.11, numpy 2.4.  Other versions
may round floats differently and change the bytes.
"""

import hashlib

import pytest

from charsumlab.campaigns import CampaignConfig, run_campaign

TARGETS = ("thm1", "thm2", "thm3", "thm4", "thm5",
           "lemma1", "smoothing", "lemma2", "weil",
           "lemma3", "lemma4", "lemma5", "lemma6",
           "lemma7", "lemma8", "lemma9", "phi", "compare")

TARGET_SETTINGS = {"thm1": {"r_d": 5}, "thm2": {"r_d": 5}, "thm3": {"r_d": 5},
                   "thm4": {"r_d": 5}, "thm5": {"r_d": 5},
                   "lemma2": {"q_max": 31}, "weil": {"q_max": 31}}

CASES = {f"{target}-seed{seed}": dict(target=target, seed=seed,
                                      **TARGET_SETTINGS.get(target, {}))
         for target in TARGETS for seed in (1, 2)}
CASES.update({
    "thm1-diagnostics": dict(target="thm1", seed=1, r_d=5, diagnostics=True),
    "thm2-s1": dict(target="thm2", seed=1, r_d=5, s=1),
    "thm3-basis": dict(target="thm3", seed=1, r_d=5, basis=((1, 1), (0, 1))),
    "thm4-3dims": dict(target="thm4", seed=1, r_d=8, n_dims=3),
    "thm5-1dim": dict(target="thm5", seed=1, r_d=5, n_dims=1),
    "lemma4-s1": dict(target="lemma4", seed=1, s=1),
    "lemma7-constant": dict(target="lemma7", seed=1, constant=0.5, slack=0.1),
    "lemma3-slack": dict(target="lemma3", seed=1, slack=0.5),
})

DIGESTS = {
    "compare-seed1":
        "091116c4de0a773956415ce4495711aa1239d36596cb6cf01ad63d8a23681711",
    "compare-seed2":
        "2534ebe85fdfc848538d6ed06dd3213e38e406d0650288cce17203a707feb767",
    "lemma1-seed1":
        "feb5f057ecbc7991dcb22b379b1887a62f1760a0be12e805ee794a7e607557fb",
    "lemma1-seed2":
        "f0ab2b3de69f35b416fa044ba36f1553045775e93d385105ad9d4c9642ad48e9",
    "lemma2-seed1":
        "5edd9c186499a73b8e1bd196df85c069f88a75118ea3d3717cd2eaf8b9b877a8",
    "lemma2-seed2":
        "b90fda0bebd5d6625bc09b968344f506566959d1c628d24f61680bcd47024b3c",
    "lemma3-seed1":
        "81191771e346699cf947677207223c4d1d44c211715e0b9dc27a285568f37dae",
    "lemma3-seed2":
        "adcec5ef6da448ad5649ac7e4922a557cb8fb5e48fedc5d7729edc8bc241c2dd",
    "lemma3-slack":
        "f36ff92fc7e802815b78028ce1eb55c7184ef0788153e53992da5e75f09280b1",
    "lemma4-s1":
        "ec003aa8e7755e620a64ffe7dec8def71dd9a3b3e357964a70d42f43c7cd5422",
    "lemma4-seed1":
        "8221a277ebaaa4c64106adceb467ddd6064f55adfd731a51790fc3baea39e0df",
    "lemma4-seed2":
        "ea6dbc6955cb401d49fe55dc7c1dc98cece8fa3588f3d5e98c047d48e3149b15",
    "lemma5-seed1":
        "727be63151b769da4b542cdc9e545f7cb0d04db3cc26b097b0fc1e415fdde572",
    "lemma5-seed2":
        "2ce2d88260c34e2b8ea6f750e9cf9d8ca521404ef850d7678c87fcd27710e2bf",
    "lemma6-seed1":
        "e9cc073d82aa8526e2f05f8656f38eced7e351071ba79911debd4f8d7d6d0b22",
    "lemma6-seed2":
        "e936f7c23a5ac5701b56ab1649dfc81b4f2938ef9d14f6cd970b6614cdaa7536",
    "lemma7-constant":
        "17de78d666e0e2487a191e2381dc76dbe8348bde63dc623baaee2f740c908517",
    "lemma7-seed1":
        "03f5f3a1495b67b46c27dc6c55a0c8e1f18b29f476de1b6e5cea1e3a2b117984",
    "lemma7-seed2":
        "b10ae9e26b57010a732522db5fed02aafd1713e97936d6c768793c7447a0e9b2",
    "lemma8-seed1":
        "0621989bb0abbacf551a52bb87e3930b4fba09d88e1b53cc8ca41de39b9955bd",
    "lemma8-seed2":
        "a3665a0d53959e80d2fd0bde955efb06faba86ca64dcb730b46e7236e38c13d2",
    "lemma9-seed1":
        "fccbeef334310acd42e92018ca5bc8e3c1653bf705d5782d2921021796b03901",
    "lemma9-seed2":
        "c305cb0d8a774a597e60279fa6b7544fffc15a70a74b01b1ab3cbd1dce928bfc",
    "phi-seed1":
        "a137ea9222fb60296217b50eb49609f6d786991cf8cf4a04bd0dbef3cab4eb93",
    "phi-seed2":
        "683be873ca919d78bb750cc9b616e4d9aa4b2fae29b06792c7e44ef3f20d6c9c",
    "smoothing-seed1":
        "988d3a450a3e63ebb7571524613c6e553c8e34ca31ebae5cb4745663d8d1c2a0",
    "smoothing-seed2":
        "650f3b31e6b60039aa13c51b2433cd5c9a515a88618618db703bab2debd9d61b",
    "thm1-diagnostics":
        "1520024718ffabd0b5f3f06a5fb49dcef615759e46633159c3856de4127cdc20",
    "thm1-seed1":
        "a0ac12f4c68f89c9e264b9ead2a979ec4303aca326999d789669315a312d4f3d",
    "thm1-seed2":
        "0ff2811bd6663649f828718a2118d7a5d1aaf77e87034b58249021481efc8b1b",
    "thm2-s1":
        "594e9045f0ad8f09038bb63ff7eb91fcbd51afa0c70b0142a1cb0d3e82fb76cf",
    "thm2-seed1":
        "379fff7da48a2f59ef6887d89b0cc0ff9d2862159e5dee071eae97a427885458",
    "thm2-seed2":
        "eaad43feb9ec22390b3edf9cc7240ed8a129fdab798acd765e750d322f537a4b",
    "thm3-basis":
        "2e7b4edc418c3fc18feb759db03e36b56873058cd564e1eeb85bc12cd57c54be",
    "thm3-seed1":
        "0f4aa3cd30b4085b84b21b686a4b57c2b3ffc7e4dbb1132f91e5a7f9d6cfad05",
    "thm3-seed2":
        "134cee87b62f464b795238813d86604dd378f9e8d087868c60d38fdc9665d9a4",
    "thm4-3dims":
        "a71807f0e9be08fd541fb470b46d0bd21db49a9250759fe785608b945a667889",
    "thm4-seed1":
        "296240baaba7709fb4ad564e713b3fa7b2f45691af3e6eee929e23324d7de36a",
    "thm4-seed2":
        "c3c71c9cc4ae3650c0b78d5333f3a1a2067fbadf5cc2a388a82990f8848191d1",
    "thm5-1dim":
        "0bb2a20562fce23343598dd50d9d8e8d1802e6c69cc9e4b9d28b8bb98077467c",
    "thm5-seed1":
        "ab029c98a57076e55389e112da859ed46a6468d0c9fce0d8a61af5dc14580d33",
    "thm5-seed2":
        "6af866c0986117d2e0467e1e66d2c0f93d7f2f2ed750e95ab395f02cd63081ce",
    "weil-seed1":
        "0f9ce0653e4964b17487e010ed849da388be8c0a522240d5efb9b9cb9fd5f0d0",
    "weil-seed2":
        "e0cc40261b8b15ad8fb6f701500d7f4286ed1d3ff28329c71624181d7726ee7c",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_are_golden(name):
    report = run_campaign(CampaignConfig(**CASES[name]))
    assert report.records
    assert hashlib.sha256(report.to_json_bytes()).hexdigest() == DIGESTS[name]
