"""Golden result-file digests of the in-memory synth -> Tracker path.

Each digest is the sha256 of the ``write_results`` file for one scene under
one tracker configuration (an arm: the full config, the baseline, or the
full config with virtual boxes emitted). They pin the tracker's output byte for byte, so a change to its
internals (state layout, batching, box conversions) that is meant to keep
outputs must leave every digest as it is. A change that is meant to alter
outputs updates the table and says why.
"""

import hashlib

import pytest

from meshsort import scenarios, synth
from meshsort.config import TrackerConfig
from meshsort.motfiles import write_results
from meshsort.pipeline import Tracker

FAMILIES = {
    "transient": scenarios.transient_occlusion_scene,
    "exit": scenarios.exit_scene,
    "rollback": scenarios.rollback_scene,
    "crossing": scenarios.crossing_scene,
}

ARMS = {
    "full": {},
    "virtual": dict(emit_virtual=True),
}


def _config(arm, scene):
    size = dict(frame_width=scene.frame_width, frame_height=scene.frame_height)
    if arm == "baseline":
        return TrackerConfig.baseline(**size)
    return TrackerConfig(**ARMS[arm], **size)


def result_digest(scene, cfg, path):
    _, frames = synth.generate(scene)
    tracker = Tracker(cfg)
    write_results(path, [tracker.step(fd) for fd in frames])
    return hashlib.sha256(path.read_bytes()).hexdigest()


GOLDEN = {
    ("transient", 1, "full"): "4c8e729f8046a7515bea158cca00ec34c6465e4d0c82dc5de9c2f56f674bca4c",
    ("transient", 1, "baseline"): "773812167e7c203e80dad5cd3592ee4bdea2047d027a744fafc2abdc7796d5c3",
    ("transient", 1, "virtual"): "2c6dbc8729d0295346243dcaa3c5fa4ef6e0a9b2582efc2158a554c67a6498eb",
    ("transient", 2, "full"): "1fc7868ef0fe2ab8b33c5e7474295fcf07a970146d7ccf2fcfd9107527229798",
    ("transient", 2, "baseline"): "53042268bb1907b4f7cb65961d4179e0959dc4ee42559e08cc538c804a27bd74",
    ("transient", 2, "virtual"): "2e909e87d0a36ef2b3b5bba69530945677813bd122caa0d27e047bfec52b7ad2",
    ("transient", 3, "full"): "12a74e4184007bf562b9ffcc9216e4f45b02d17fa920210777024b41c13af316",
    ("transient", 3, "baseline"): "65e4ef60930908f01a6dad4753568cf5dd1b3ca012658fb5bf22f92834aa4677",
    ("transient", 3, "virtual"): "f08f9712951b86e6d8afa3ef8b2258db83841e2f65b246892f083fe1152605c2",
    ("transient", 4, "full"): "483fc65fd36bac4f2e7c42831c830de790c9062bcc33b3df459b90f6768e556d",
    ("transient", 4, "baseline"): "ec866117a3e9635b5f41951296ac4690ff5cb9330a3510b3d582ed50b3fc6eb0",
    ("transient", 4, "virtual"): "0a27473d905f62b4e0c1ae53731689187745f6edddcf81d09d4cc292216e06ec",
    ("transient", 5, "full"): "f27cf95002371db3699e9fdb078b10accf3850b378fe9fe9c79a9e4248d1687c",
    ("transient", 5, "baseline"): "7d43173c4b2fb5f3005c3e4b64b54e68030f3c54a83c2ec43959cc00447e7341",
    ("transient", 5, "virtual"): "e20cac547798f2b1761ad81f250f52a49ba1fe445874899c9b297f4d06443f5c",
    ("exit", 1, "full"): "1c46ec13b768bf24ed908cb76e924ee508847d66cf1863a50d3825cbd409089d",
    ("exit", 1, "baseline"): "1c46ec13b768bf24ed908cb76e924ee508847d66cf1863a50d3825cbd409089d",
    ("exit", 1, "virtual"): "ef026e3164af91a80b06ad5059020ed9ece8bf4497ca8eff02f3fd447e1ad806",
    ("exit", 2, "full"): "24d74b78453300314019bec8974ae8858c5e4d375eb07e6fa92e285d006459af",
    ("exit", 2, "baseline"): "24d74b78453300314019bec8974ae8858c5e4d375eb07e6fa92e285d006459af",
    ("exit", 2, "virtual"): "4c7d6439de01efe1e9d0eb19a55cd47f762b971959a218940e8cbf0aab53d26c",
    ("exit", 3, "full"): "a9165c681d9c7717268ef0d313e16be0efe541bac8bc213076af02cf50ef2913",
    ("exit", 3, "baseline"): "a9165c681d9c7717268ef0d313e16be0efe541bac8bc213076af02cf50ef2913",
    ("exit", 3, "virtual"): "b4189f3278a807eaa3e973fc7c1f084c28eb58fd7c0580e9c6514400678903eb",
    ("exit", 4, "full"): "a45405827371f17aa4365faee36bea41757b0adeaf8f78049dea8cddb3baaaca",
    ("exit", 4, "baseline"): "a45405827371f17aa4365faee36bea41757b0adeaf8f78049dea8cddb3baaaca",
    ("exit", 4, "virtual"): "53f5496f2fa7b035d2ca36c27ac671d2fae6e3e818b90411192c0f58b0af22b0",
    ("exit", 5, "full"): "6a290d80a30b2fab721924a60ff438779e3ea7a8a1b1135a826e412e2e8f5ff3",
    ("exit", 5, "baseline"): "6a290d80a30b2fab721924a60ff438779e3ea7a8a1b1135a826e412e2e8f5ff3",
    ("exit", 5, "virtual"): "76c8eb17f84f6272649c95fad48f11dca1022c2fc42be27686323c9906f7d149",
    ("rollback", 1, "full"): "76c71f7e692fc220ce1a38e0245b2d216f9da9b991a45eb6f9f092ea6a69bf38",
    ("rollback", 1, "baseline"): "5b7cbc1b40baff4bb29ac0523f0d7056b1829fb492809a519f28db51d6279a7d",
    ("rollback", 1, "virtual"): "8dbd5b8f628e93e276b69423db1ebcdcf6c01b73a949f2ee343bf6930fe7e14d",
    ("rollback", 2, "full"): "b8fa4845c8bddfd29ed296849a35d38e76a8c3a7c90da33d5d65f7be42771085",
    ("rollback", 2, "baseline"): "2f9a263b21ef9d01d3431227e25a2dbc4539245284936d1b42bf826ff42e406d",
    ("rollback", 2, "virtual"): "f528334ee6ba66c92a61f273415fc1e65cfbaaab5cdcc0d021f8ddca7b767ead",
    ("rollback", 3, "full"): "7ebfc069941a181bdfbac9141f1004f62189daec124a7d37e925cb37da07d287",
    ("rollback", 3, "baseline"): "f838734e6dd410122c4f1d634c2ea57ebbc756bd3ae1806ed788a150cbc9a687",
    ("rollback", 3, "virtual"): "a49973bc423afb8b0428a2853b0dc92799e3e8ad43d8dd23a8e1d462195c4e7f",
    ("rollback", 4, "full"): "73da0072fef8f1c15a391a1fdf94b1e7033b9aa84af8d3ede2b53c3b0e5bea17",
    ("rollback", 4, "baseline"): "551a7039c725a5874687a87cc6b1a4bc1153a178751dfaed4a017193970744f2",
    ("rollback", 4, "virtual"): "99105f44240976402459fc8771d7560f7fc312438649915b33572baafac5ef88",
    ("rollback", 5, "full"): "8df02638889a11b872878e924d2b72c1542b36e3722888c4f48f9ff03698968c",
    ("rollback", 5, "baseline"): "e6c1390b0e150cbb90e16d38146e02079927d716a829ff4da396256faf87fe8c",
    ("rollback", 5, "virtual"): "918b8121e939e6795483f5a470ac517321058924ffc4759d3e74289ab96f2949",
    ("crossing", 1, "full"): "cbb386befe9f8a8646c24fc5130cf949392441dfc521491cdd8dfba997204734",
    ("crossing", 1, "baseline"): "e16dcfe8f6368a4aaff269859ee729051d52571bdd9d7fb3e70f298e60474f59",
    ("crossing", 1, "virtual"): "c5590f97f9d2309bd3d676e2879302016729a02c79eee548bd3cb132b5b2bb39",
    ("crossing", 2, "full"): "e451d09a3deab07f25312886a6d87a1237e0c667e1edef40d77b53d7ec43a16d",
    ("crossing", 2, "baseline"): "154672e7bf0764f04ff7ed27e705f62a24ec85fc036d3b615c5f32c3637c0b34",
    ("crossing", 2, "virtual"): "6e4a483ec25fa99d0bb4653296001f011fce1c4c063736f91191bc5e412d0be9",
    ("crossing", 3, "full"): "d59cc901731ad911fedfb766d24cedb50676e105a42a4187eb2e074ee1952ac6",
    ("crossing", 3, "baseline"): "617e354aa35a1b190ea3ee787579b0ff186061cf02da300f685c7fdee2543a38",
    ("crossing", 3, "virtual"): "5eb0f01e83515a314bcdd84aba7fe39cbcc46c49d62ec09658db16356f507dbc",
    ("crossing", 4, "full"): "573de2653deba6d32c900b12ef24f278d94f6091a83ec1f77c7f0577e17013f6",
    ("crossing", 4, "baseline"): "b56272e54ff4d6bf9d38fd92c1e85611d3eb08023afa2c133c136645dcbf0b9b",
    ("crossing", 4, "virtual"): "3a51286259088e201146002a58f916fce0163be02520fc18965baeacda5673ef",
    ("crossing", 5, "full"): "116dd80c5c7cbb8ec344cd228ee482700c5a7ed29da4c4b1da586854ec28c1a0",
    ("crossing", 5, "baseline"): "00715c250f1abed62c93e0e7de1b8331a6b90fab85e1404384df0ea14ce38496",
    ("crossing", 5, "virtual"): "93ad56e61023a6a0d1eabc1e421a6edeeab07d0c133eaf1032aebc99ec98ad11",
}

THROUGHPUT_GOLDEN = "76ff095e8543dcf3581e7fddd5555ce1465899bc1be454614431637bf0d5c7a1"


@pytest.mark.parametrize("family,seed,arm", sorted(GOLDEN))
def test_family_digest(family, seed, arm, tmp_path):
    scene = FAMILIES[family](seed)
    got = result_digest(scene, _config(arm, scene), tmp_path / "res.txt")
    assert got == GOLDEN[family, seed, arm]


def test_throughput_digest(tmp_path):
    scene = scenarios.throughput_scene(seed=9, n_agents=30, frames=200)
    got = result_digest(scene, _config("full", scene), tmp_path / "res.txt")
    assert got == THROUGHPUT_GOLDEN
