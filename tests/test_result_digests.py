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
    ("transient", 1, "full"): "b2e7d3084abdc2f74dfaa2427748c365fca3e88b62964f1a8445cc28073b2aba",
    ("transient", 1, "baseline"): "53763d7a16dab528a0d89232a412e869a44ce491bed5ccd87da19b5a359b6588",
    ("transient", 1, "virtual"): "46eae36b6438a62810eb91ff40e01208ef70f38e012935a05dd06ed1cf5a8e1f",
    ("transient", 2, "full"): "f883e941c438eaf8155e8fbd6f7184d62b54e3f51e64c2f58b93c4874bea427d",
    ("transient", 2, "baseline"): "093c8d94483aacb810910775f0a4a2323bdf8eddcf5cbe10737b9b869d5ed141",
    ("transient", 2, "virtual"): "0b871d5cb0f88c73c1e9ca4f49a0aae86022b075208e1b85c345bde7c41aaea9",
    ("transient", 3, "full"): "87a2bc375dec29e52396d773231bf71ca203df046bf0a44997d50de09cce1081",
    ("transient", 3, "baseline"): "65fb8769b72b4196c00c41896a784f50a149b46969b89375c02dfedada99e500",
    ("transient", 3, "virtual"): "2cc2a8b4a5ce835a15eb506c64c257d93b48d4876a4003ddaacab354726075ca",
    ("transient", 4, "full"): "3daceb2e16be0254d8773f211b249c4fbd33638e8cf167efdedbef65dfd2a2a7",
    ("transient", 4, "baseline"): "714c2062e3bb4bb184a3accd4b446b1df03693fd004898d5f9885a47ab4d517c",
    ("transient", 4, "virtual"): "4dc8054107a32841dda343ad6f723a41c5bb32ecd02e7f84830bd605438e8833",
    ("transient", 5, "full"): "98c2df2a9bfb697013c23905cfffca311646a9ad1fd20ff56de6e676fbcfa745",
    ("transient", 5, "baseline"): "c1bec2fdc74ea3567bf75b39798d795443cdfcadba4cf8e47916de72ba613537",
    ("transient", 5, "virtual"): "d91bf4df6636aef1b437d61df796e959b6df1a05075fb0d04ba72f2c0058ce91",
    ("exit", 1, "full"): "2c95c7d983e52e5bdecf87b37e3d20e1f534f7cc78d626be238807e066eb6425",
    ("exit", 1, "baseline"): "2c95c7d983e52e5bdecf87b37e3d20e1f534f7cc78d626be238807e066eb6425",
    ("exit", 1, "virtual"): "a64213412870d12e09c185d5c1bc9ff7451ee3c31b4e709709bc94dadd89f765",
    ("exit", 2, "full"): "fc4c18d31d89d9469900800f8d6baae9e1fc4b430ef3eb538f2c32cd7d2afc6c",
    ("exit", 2, "baseline"): "fc4c18d31d89d9469900800f8d6baae9e1fc4b430ef3eb538f2c32cd7d2afc6c",
    ("exit", 2, "virtual"): "9ae8bcc7044cf4c05e831b0f9a734a78ba1ef7eaf57a5f6a0c000a4ca3fc3a75",
    ("exit", 3, "full"): "dd9542bf9a3e125fb6bda306717f931b5ff03039323295299fee42b9bd0c9763",
    ("exit", 3, "baseline"): "dd9542bf9a3e125fb6bda306717f931b5ff03039323295299fee42b9bd0c9763",
    ("exit", 3, "virtual"): "9c5324cf861fa1c8ac3616a49836be4de381cc3db4543cf899c2c87318cb9450",
    ("exit", 4, "full"): "2492a3e804490a33851a36a9b4ec82d306d45f98b88327f0737f0759abc1c638",
    ("exit", 4, "baseline"): "2492a3e804490a33851a36a9b4ec82d306d45f98b88327f0737f0759abc1c638",
    ("exit", 4, "virtual"): "8bf575871c15bf1bf6c6696762230a0e94c77bdb78e39fe142e1ba04bc271050",
    ("exit", 5, "full"): "64dc15f058df9279b8cefa1911fdac28defa3ed2e3e6d162538e08400e5ac8c1",
    ("exit", 5, "baseline"): "64dc15f058df9279b8cefa1911fdac28defa3ed2e3e6d162538e08400e5ac8c1",
    ("exit", 5, "virtual"): "bfd5afbbbaf4461dd0e69ac49df1ff90c224bcf7c9db95afbc74a78f0bfcb18e",
    ("rollback", 1, "full"): "dc21770cbd7e7c52d41d12f54013d5fe8f2646940c7e15092a9af157c8d6b3a6",
    ("rollback", 1, "baseline"): "c47434304e854236c2d08959766bef06394644f4d7e0cf350cbffd6d1315cb96",
    ("rollback", 1, "virtual"): "2b401eeb9e08fbb28ba8fcbf7a6ea9e5b710c14302227a15cb3f95c8eec0480b",
    ("rollback", 2, "full"): "6b7b04a6f8edde832411a09e75b16275f7d786a8a5a0ac90eddfddd4eec7f1e4",
    ("rollback", 2, "baseline"): "8decd915f142ce02d7105556cc7a90bd6a753b2e1a8884742c8159d4a20a198b",
    ("rollback", 2, "virtual"): "154649d584d1a1326e9ac189a79cdf91568b6e4e4d2e08795b0339a5d3edf30e",
    ("rollback", 3, "full"): "bec4a37ad5ba17e609a49fb0408ed7623c07c18ceb1b7091ac84b532347653a7",
    ("rollback", 3, "baseline"): "4df9ffc9497c89364606aa4108560a37012552f8a99c6ad67e5602406072805f",
    ("rollback", 3, "virtual"): "97a3d3e5ab482025cec7dafb19fce7f8a0aa25fa6de65fdb32f60f8bdf7bf100",
    ("rollback", 4, "full"): "657a54525f98b484e05ab49d04f43d7a8f7cbef253977d02d5d427d4cd327190",
    ("rollback", 4, "baseline"): "f5090aa57523eb142b3ca5f10ee6f78fb51c50bf8268845008e9230743463393",
    ("rollback", 4, "virtual"): "accbef6bf39af1d9f8c82b4b7e48d8a5d81f7ed6dac18c26ab10a9cd76e380f1",
    ("rollback", 5, "full"): "6c187268b122899dcf2d63481294409cf476b1ef79c468ee097346a211303893",
    ("rollback", 5, "baseline"): "136832a8eaf089fc048984058f3e67eea034bc24f154987472a6798d47253c0b",
    ("rollback", 5, "virtual"): "5cfade21269f2ef6c7abdae95f4d750eed0862143cb8843f68c6ffca8678c7ac",
    ("crossing", 1, "full"): "808c4b77b9191340930e8026361eebce80b05af1a3902f6c951b75cc54013794",
    ("crossing", 1, "baseline"): "f1aae7161c4a7b05e834d7621d28a6bb5bd108ef1115135b33fe263ba7603afd",
    ("crossing", 1, "virtual"): "8a68001f4f18742e1d3547b0585075f4e33e0b9f45f4138aeef21684a5317626",
    ("crossing", 2, "full"): "8f10e0ece76854910ebfe425d817ae64b38acec70edf3ada9004ea16ae0ad08c",
    ("crossing", 2, "baseline"): "4ee35b198b7a0604a6aff2bda53b35092d2d263c08e81343ce5c21b1b7520089",
    ("crossing", 2, "virtual"): "2af4d01fa03ccf4991ee9e0ab2a4a9093be0d4a4e85455ede7a8e48dcdad6aaa",
    ("crossing", 3, "full"): "289e06c68bd54e65b686f1627de6957231216b4d9a473614ae938fa845d0e8dd",
    ("crossing", 3, "baseline"): "bb005bae3b425d8a4d40042dcbf68afd8381c9a93ab62637c42b57118cd2b732",
    ("crossing", 3, "virtual"): "734a6610947028b772fcd2ca471157bc7d09a6c6e26f1c1ee8c86d804a9f49ab",
    ("crossing", 4, "full"): "5e028be357959437c8cc1fab3cf889e77f8ab6de0ee72a1f016a08ce7925cac6",
    ("crossing", 4, "baseline"): "4fdc5f378c8a280c84012a32d14db64873cb8b1f9be0e29585cd3aeb9d161677",
    ("crossing", 4, "virtual"): "b25a684dc8621d509f83ae0bce112a210ac89d09c4da3d7856c8fc0f57a95ae1",
    ("crossing", 5, "full"): "2068d2cff75af4ca328897c18e9b1af72dd4443ce65c461db45294da09f048c2",
    ("crossing", 5, "baseline"): "871cff494238d1d06dc689fe08b105b6250787d225ead76b713a02a9166582fd",
    ("crossing", 5, "virtual"): "c966c02d9615aaed6a082226caf66de4f1178e9bcd1cbd701bc7a364128bfafe",
}

THROUGHPUT_GOLDEN = "79ae31ebf3ea7c428bf7710cfb921336d1ae59563927a51c63f14e379f730aa5"


@pytest.mark.parametrize("family,seed,arm", sorted(GOLDEN))
def test_family_digest(family, seed, arm, tmp_path):
    scene = FAMILIES[family](seed)
    got = result_digest(scene, _config(arm, scene), tmp_path / "res.txt")
    assert got == GOLDEN[family, seed, arm]


def test_throughput_digest(tmp_path):
    scene = scenarios.throughput_scene(seed=9, n_agents=30, frames=200)
    got = result_digest(scene, _config("full", scene), tmp_path / "res.txt")
    assert got == THROUGHPUT_GOLDEN
