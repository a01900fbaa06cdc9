//! Byte-identity pins for every checkpoint manifest at the daemon's cadence.
//!
//! `datalife serve` runs each job with the default timeline recording and a
//! manifest every 25 ms of sim time, so its manifests carry the whole
//! monitor pair store many times per job. The digests below (FNV-1a over
//! the exact file, as in `json_codec.rs`) pin every manifest each catalog
//! workflow writes under that configuration, plus the run's final
//! `checkpoint_bytes` counter: how a manifest is assembled and encoded may
//! change, what lands on disk and what the counter reports may not.

use std::path::PathBuf;

use dfl_obs::ObsConfig;
use dfl_workflows::catalog::{self, Scale};
use dfl_workflows::checkpoint::CheckpointConfig;
use dfl_workflows::engine::run;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dfl-manifest-digests-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `{workflow}/{manifest file}: {FNV-1a} {length}` for every manifest, then
/// `{workflow} checkpoint_bytes: {counter}` per workflow.
const DIGESTS: &[&str] = &[
    "genomes/manifest-000000.json: 0x756cf49956382f37 44859",
    "genomes/manifest-000001.json: 0x9b4b335355a2c328 517514",
    "genomes/manifest-000002.json: 0x4ea3bedb49e379c9 1042561",
    "genomes/manifest-000003.json: 0x2e5d4406caf812ce 1302896",
    "genomes/manifest-000004.json: 0x1b56fb47d17010c4 1944020",
    "genomes/manifest-000005.json: 0x643cb3a3cab535c9 2263245",
    "genomes checkpoint_bytes: 7092857",
    "ddmd/manifest-000000.json: 0x951edebce926f4e1 32449",
    "ddmd/manifest-000001.json: 0x428416e3e4a6f79d 104879",
    "ddmd/manifest-000002.json: 0xd94d4c92327ab00a 327710",
    "ddmd/manifest-000003.json: 0x5ffc659585a43e8d 550268",
    "ddmd/manifest-000004.json: 0x0c9dde506491ee6f 610578",
    "ddmd/manifest-000005.json: 0x4aff6bd6be1ad251 641606",
    "ddmd/manifest-000006.json: 0x5f3eee1d2cd70ece 646784",
    "ddmd/manifest-000007.json: 0x3d88674ac9bbac33 646909",
    "ddmd/manifest-000008.json: 0x8001b58c87967e11 647114",
    "ddmd/manifest-000009.json: 0x8730c8e47576ee46 751018",
    "ddmd/manifest-000010.json: 0xf5ec727b54b8a380 796854",
    "ddmd/manifest-000011.json: 0x93707297cb9e9b28 912741",
    "ddmd/manifest-000012.json: 0xb2fc294a79591116 1323396",
    "ddmd/manifest-000013.json: 0x570b36dc5b4adac3 1418566",
    "ddmd/manifest-000014.json: 0xa6790326f2029446 1450880",
    "ddmd/manifest-000015.json: 0x5029a16b1ef754a7 1455778",
    "ddmd/manifest-000016.json: 0xc8cd03fb69253c11 1458170",
    "ddmd/manifest-000017.json: 0xb8b84ff4f015d764 1458377",
    "ddmd/manifest-000018.json: 0x5415858959968dbb 1522556",
    "ddmd/manifest-000019.json: 0x056d7fd50f94bc02 1567233",
    "ddmd checkpoint_bytes: 18273422",
    "belle2/manifest-000000.json: 0x0b56b0e408dbb610 25300",
    "belle2/manifest-000001.json: 0xca6592e1698bc11a 33630",
    "belle2/manifest-000002.json: 0xe23821d028a043be 33831",
    "belle2/manifest-000003.json: 0xa57f638067426a81 109837",
    "belle2/manifest-000004.json: 0x2ff520bc95bc7e20 110043",
    "belle2/manifest-000005.json: 0x13c2bfd25c264b9b 111999",
    "belle2/manifest-000006.json: 0x53218dd409ea8f93 112203",
    "belle2/manifest-000007.json: 0x84a24818231b6bf3 164488",
    "belle2/manifest-000008.json: 0x5cee116f379251ff 207907",
    "belle2/manifest-000009.json: 0xcf18cc1721009ac4 208114",
    "belle2/manifest-000010.json: 0x6489308e13d772d8 233560",
    "belle2/manifest-000011.json: 0x7a4b0d88796828e0 233766",
    "belle2/manifest-000012.json: 0x5245c19265dcb437 235230",
    "belle2/manifest-000013.json: 0xfc159a5acc648607 235436",
    "belle2/manifest-000014.json: 0xca50437af4885ed6 266340",
    "belle2/manifest-000015.json: 0x59f71dc4119fbf42 302279",
    "belle2/manifest-000016.json: 0xc8dc92520ca67c47 303124",
    "belle2/manifest-000017.json: 0xe04a321d0d3a7ccb 313989",
    "belle2/manifest-000018.json: 0xa31f616b5c70b313 373485",
    "belle2/manifest-000019.json: 0xc1ec3ccc38b5b3be 400642",
    "belle2/manifest-000020.json: 0xd1c9f999ca956f9d 476417",
    "belle2/manifest-000021.json: 0x9c6ffb59d2b64641 655261",
    "belle2/manifest-000022.json: 0x4d4033a0c9b86a9b 621877",
    "belle2/manifest-000023.json: 0x1cc61f6379199402 636388",
    "belle2/manifest-000024.json: 0x1ea9a6a3a3afb98c 783208",
    "belle2/manifest-000025.json: 0x439f53601ecba114 784076",
    "belle2/manifest-000026.json: 0x4fad02172ed943d2 786466",
    "belle2/manifest-000027.json: 0xa1f7ed909222c4ad 786672",
    "belle2/manifest-000028.json: 0xe9c9a9191c763c37 789504",
    "belle2/manifest-000029.json: 0x34b6d0b11304cb38 789710",
    "belle2/manifest-000030.json: 0x23b2e462b79428bc 790087",
    "belle2/manifest-000031.json: 0xa35b415ee2512d04 792748",
    "belle2/manifest-000032.json: 0x80ed452b705c37f5 792954",
    "belle2/manifest-000033.json: 0xa5f595c4946845aa 795557",
    "belle2/manifest-000034.json: 0x804239ab4b81499e 855046",
    "belle2/manifest-000035.json: 0x10932f473c4e4fc2 841402",
    "belle2 checkpoint_bytes: 15917911",
    "montage/manifest-000000.json: 0x7618fd9ae6d67523 33286",
    "montage/manifest-000001.json: 0x52cf9c2e5885ea20 316363",
    "montage/manifest-000002.json: 0x3dcd512b2097a970 316565",
    "montage/manifest-000003.json: 0xf5b2336a2f0d802d 1135437",
    "montage/manifest-000004.json: 0x1b3c5a4e661520cd 1547482",
    "montage/manifest-000005.json: 0xce03a777d688aa42 2135695",
    "montage/manifest-000006.json: 0x5358742f5f029a16 2697237",
    "montage/manifest-000007.json: 0x5d17f313ce77c5a9 3034656",
    "montage/manifest-000008.json: 0x9400515d0ca1e0c0 3034862",
    "montage/manifest-000009.json: 0x1c983674c37b81fb 3079300",
    "montage checkpoint_bytes: 17283541",
    "seismic/manifest-000000.json: 0xe52094b9d066053d 24013",
    "seismic/manifest-000001.json: 0xe392019d988a6059 410355",
    "seismic/manifest-000002.json: 0x0f06c5ccb97af79e 929344",
    "seismic/manifest-000003.json: 0x23c58ebcbd710801 1169971",
    "seismic checkpoint_bytes: 2519052",
    "smoke/manifest-000000.json: 0x267d9ee1733d9a45 7692",
    "smoke/manifest-000001.json: 0x757b01229ece8946 195917",
    "smoke checkpoint_bytes: 201900",
];

#[test]
fn every_manifest_at_daemon_cadence_matches_pinned_bytes() {
    let mut got = Vec::new();
    for &name in catalog::WORKFLOWS {
        let dir = fresh_dir(name);
        let (spec, mut cfg) = catalog::build(name, Scale::Tiny, 2).unwrap();
        cfg.obs = Some(ObsConfig::default());
        cfg.checkpoint = Some(CheckpointConfig::to_dir(&dir).every_sim_ns(25_000_000));
        let result = run(&spec, &cfg).unwrap();
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        for file in files {
            let bytes = std::fs::read(dir.join(&file)).unwrap();
            got.push(format!(
                "{name}/{file}: {:#018x} {}",
                fnv(&bytes),
                bytes.len()
            ));
        }
        let counter = result.timeline.unwrap().metrics.counter("checkpoint_bytes");
        got.push(format!("{name} checkpoint_bytes: {counter}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(got, DIGESTS, "\n{}\n", got.join("\n"));
}
