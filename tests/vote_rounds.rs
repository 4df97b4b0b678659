//! Repetition-coded drivers measure each round once.
//!
//! `BsaesAttack::slice_votes`/`key_votes`, `UrgAttack::leak_byte_votes`
//! and `CovertChannel::round_trip_votes` seed round `r` the same way at
//! every redundancy, so the rounds at redundancy 1 and 2 are the first
//! rounds at redundancy 3. E16 relies on that: its one-shot receiver is
//! round 0 of the vote. The cases run under E16's smoke noise configurations
//! (suite seed 0); the quiet cases check that `key_votes` decodes the
//! same key as the `recover_key` pipeline E9 runs.

use pandora_attacks::{BsaesAttack, KeyVotes, SliceVotes, UrgAttack};
use pandora_channels::CovertChannel;
use pandora_sim::{NoiseConfig, SimConfig};

/// E16's suite seed, smoke intensities and interference windows.
const SEED: u64 = 0;
const INTENSITIES: [u16; 3] = [0, 30, 60];
const MIDPOINT: u16 = 30;
const BSAES_WINDOW: (u64, u64) = (0x1_0000, 0x1_8000);
const COVERT_WINDOW: (u64, u64) = (0x4_0000, 0x5_0000);
const SECRET_ADDR: u64 = 0x20_0000;

type Keys = ([u8; 16], [u8; 16], [u8; 16]);

/// E16's victim key, attacker key and victim plaintext.
fn e16_keys() -> Keys {
    (
        std::array::from_fn(|i| (i * 13 + 7) as u8),
        std::array::from_fn(|i| (i * 31 + 5) as u8),
        std::array::from_fn(|i| (i * 3) as u8),
    )
}

/// E9's victim key, attacker key and victim plaintext.
fn e9_keys() -> Keys {
    (
        std::array::from_fn(|i| (i * 29 + 3) as u8),
        std::array::from_fn(|i| (i * 17 + 11) as u8),
        std::array::from_fn(|i| (i * 5 + 1) as u8),
    )
}

/// `2 · half + 1` guesses per slice, centred on the truth.
fn window((vk, ak, vpt): Keys, half: u16) -> impl Fn(usize) -> Vec<u16> {
    move |k| {
        let lo = BsaesAttack::new(vk, ak, vpt, k)
            .true_slice_value()
            .wrapping_sub(half);
        (0..2 * half + 1).map(|d| lo.wrapping_add(d)).collect()
    }
}

/// `rows` cut down to their first `n` rounds.
fn first_rounds(rows: &KeyVotes, n: usize) -> Vec<SliceVotes> {
    rows.slices
        .iter()
        .map(|row| SliceVotes {
            votes: row.votes[..n].to_vec(),
            victim_ct: row.victim_ct,
        })
        .collect()
}

#[test]
fn bsaes_rounds_do_not_depend_on_redundancy() {
    let keys @ (vk, ak, vpt) = e16_keys();
    let mut atk = BsaesAttack::new(vk, ak, vpt, 0);
    let noise =
        NoiseConfig::at_intensity(MIDPOINT, SEED).with_window(BSAES_WINDOW.0, BSAES_WINDOW.1);
    atk.set_noise(noise);
    let three = atk.key_votes(window(keys, 2), 60, 3).unwrap();
    assert!(three.slices.iter().all(|row| row.votes.len() == 3));
    let two = atk.key_votes(window(keys, 2), 60, 2).unwrap();
    assert_eq!(two.slices.to_vec(), first_rounds(&three, 2));
    let one = atk.key_votes(window(keys, 2), 60, 1).unwrap();
    assert_eq!(one.slices.to_vec(), first_rounds(&three, 1));

    // Row k is the slice-k attack's own sweep under the shifted seed.
    for (k, row) in one.slices.iter().enumerate() {
        let mut per_slice = BsaesAttack::new(vk, ak, vpt, k);
        let mut n = noise;
        n.seed = n
            .seed
            .wrapping_add((k as u64).wrapping_mul(0x5851_f42d_4c95_7f2d));
        per_slice.set_noise(n);
        assert_eq!(
            &per_slice.slice_votes(&window(keys, 2)(k), 60, 1).unwrap(),
            row,
            "slice {k}"
        );
    }
}

#[test]
fn urg_rounds_do_not_depend_on_redundancy() {
    let secrets = [0x13u8, 0x77];
    for intensity in [MIDPOINT, 60] {
        let mut urg = UrgAttack::new(3);
        for (i, &b) in secrets.iter().enumerate() {
            urg.plant_secret(SECRET_ADDR + i as u64, b);
        }
        urg.set_noise(NoiseConfig::at_intensity(
            intensity,
            SEED.wrapping_add(0xa11ce),
        ));
        for i in 0..secrets.len() as u64 {
            let three = urg.leak_byte_votes(SECRET_ADDR + i, 3).unwrap();
            assert_eq!(three.len(), 3);
            for redundancy in [1, 2] {
                assert_eq!(
                    urg.leak_byte_votes(SECRET_ADDR + i, redundancy).unwrap(),
                    three[..redundancy],
                    "intensity {intensity}, byte {i}, redundancy {redundancy}"
                );
            }
        }
    }
}

#[test]
fn covert_rounds_do_not_depend_on_redundancy_or_threads() {
    let ch = CovertChannel {
        base: 0x4_0000,
        symbols: 16,
        stride: 64,
        result_base: 0x800,
    };
    let values = [1usize, 6, 11, 14];
    for intensity in INTENSITIES {
        let seed = SEED.wrapping_add(u64::from(intensity) * 0x9e37_79b9);
        let cfg = SimConfig {
            noise: NoiseConfig::at_intensity(intensity, seed)
                .with_window(COVERT_WINDOW.0, COVERT_WINDOW.1),
            ..SimConfig::default()
        };
        let jobs: Vec<(SimConfig, usize)> = values
            .iter()
            .enumerate()
            .map(|(vi, &value)| {
                let mut c = cfg;
                c.noise.seed = cfg.noise.seed.wrapping_add(vi as u64 * 0xabcd);
                (c, value)
            })
            .collect();
        let three = ch.round_trip_votes(&jobs, 3, 1).unwrap();
        assert!(three.iter().all(|rounds| rounds.len() == 3));
        assert_eq!(
            ch.round_trip_votes(&jobs, 3, 2).unwrap(),
            three,
            "intensity {intensity}, 2 threads"
        );
        for redundancy in [1, 2] {
            let firsts: Vec<Vec<Option<usize>>> = three
                .iter()
                .map(|rounds| rounds[..redundancy].to_vec())
                .collect();
            for threads in [1, 2] {
                assert_eq!(
                    ch.round_trip_votes(&jobs, redundancy, threads).unwrap(),
                    firsts,
                    "intensity {intensity}, redundancy {redundancy}, {threads} thread(s)"
                );
            }
        }
    }
}

#[test]
fn quiet_key_votes_match_recover_key() {
    let keys @ (vk, ak, vpt) = e9_keys();
    let atk = BsaesAttack::new(vk, ak, vpt, 0);
    let votes = atk.key_votes(window(keys, 4), 60, 1).unwrap();
    assert_eq!(votes.key(), atk.recover_key(window(keys, 4), 60));
    assert_eq!(votes.key(), Some(vk));
}

#[test]
fn key_votes_miss_when_one_window_misses_its_truth() {
    let keys @ (vk, ak, vpt) = e9_keys();
    let atk = BsaesAttack::new(vk, ak, vpt, 0);
    let centred = window(keys, 1);
    let missing = |k: usize| {
        let w = centred(k);
        if k == 5 {
            w.iter().map(|g| g.wrapping_add(100)).collect()
        } else {
            w
        }
    };
    let votes = atk.key_votes(missing, 60, 1).unwrap();
    assert_eq!(votes.slices[5].votes, [None], "no guess wins by the gap");
    assert_eq!(votes.key(), None);
    assert_eq!(atk.recover_key(missing, 60), None);
}
