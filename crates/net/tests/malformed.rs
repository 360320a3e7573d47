//! Malformed-input fuzzing for the wire protocol — the wire arm of
//! `xtask fuzz`.
//!
//! A server decodes bytes from anyone who can connect, so no input may
//! panic it. Seeded random messages of every type are encoded, then:
//!
//! * **truncated at every byte**: each prefix of a payload must decode
//!   to `Err`, and so must each prefix of a whole frame read through
//!   [`read_frame`];
//! * **corrupted by deterministic byte flips**: a mutation may still
//!   decode (flipping a file id yields a different but valid fetch), so
//!   the invariants are that nothing panics and that every `Ok`
//!   re-encodes to exactly the bytes it came from.
//!
//! Throughout, the server's allocation-free fetch decoder
//! [`decode_fetch_into`] must agree with [`Message::decode`].
//!
//! Extra seeds arrive via `FGCACHE_FUZZ_SEEDS` (comma-separated integers,
//! `0x`-prefixed hex allowed), the same contract as the other fuzz
//! suites.

use fgcache_net::wire::read_frame;
use fgcache_net::{decode_fetch_into, FileReply, Message, WireStats};
use fgcache_types::rng::RandomSource;
use fgcache_types::{AccessOutcome, FileId, SeededRng};

/// Built-in seeds; `FGCACHE_FUZZ_SEEDS` adds more.
const DEFAULT_SEEDS: [u64; 3] = [0xFEED_FACE, 42, 20020702];

/// Wire message types of `Fetch` and `FetchOwned` (see the table in the
/// `wire` module docs).
const FETCH_TYPES: [u8; 2] = [1, 10];

/// Number of wire message types (1 through 10).
const MESSAGE_TYPES: usize = 10;

fn seeds() -> Vec<u64> {
    let mut seeds: Vec<u64> = DEFAULT_SEEDS.to_vec();
    if let Ok(raw) = std::env::var("FGCACHE_FUZZ_SEEDS") {
        for tok in raw.split(',') {
            let tok = tok.trim();
            if tok.is_empty() {
                continue;
            }
            let parsed = match tok.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => tok.parse(),
            };
            if let Ok(seed) = parsed {
                seeds.push(seed);
            }
        }
    }
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

fn files(rng: &mut SeededRng) -> Vec<FileId> {
    (0..rng.gen_index(6))
        .map(|_| FileId(rng.next_u64()))
        .collect()
}

fn text(rng: &mut SeededRng) -> String {
    const ALPHABET: [char; 6] = ['a', 'Z', '7', ':', '.', 'é'];
    (0..rng.gen_index(12))
        .map(|_| ALPHABET[rng.gen_index(ALPHABET.len())])
        .collect()
}

/// A random message of wire type `kind + 1`.
fn message(kind: usize, rng: &mut SeededRng) -> Message {
    let request_id = rng.next_u64();
    match kind {
        0 => Message::Fetch {
            request_id,
            files: files(rng),
        },
        1 => Message::FetchReply {
            request_id,
            files: files(rng)
                .into_iter()
                .map(|file| FileReply {
                    file,
                    outcome: if rng.chance(0.5) {
                        AccessOutcome::Hit
                    } else {
                        AccessOutcome::Miss
                    },
                })
                .collect(),
        },
        2 => Message::StatsRequest { request_id },
        3 => Message::StatsReply {
            request_id,
            stats: WireStats {
                accesses: rng.next_u64(),
                hits: rng.next_u64(),
                misses: rng.next_u64(),
                speculative_inserts: rng.next_u64(),
                speculative_hits: rng.next_u64(),
                evictions: rng.next_u64(),
                demand_fetches: rng.next_u64(),
                files_transferred: rng.next_u64(),
                members_already_resident: rng.next_u64(),
                reply_cache_hits: rng.next_u64(),
            },
        },
        4 => Message::Shutdown { request_id },
        5 => Message::ShutdownAck { request_id },
        6 => Message::Error {
            request_id,
            message: text(rng),
        },
        7 => Message::ClusterUpdate {
            request_id,
            epoch: rng.next_u64(),
            members: (0..rng.gen_index(4))
                .map(|_| (rng.next_u64(), text(rng)))
                .collect(),
        },
        8 => Message::ClusterUpdateAck {
            request_id,
            epoch: rng.next_u64(),
        },
        _ => Message::FetchOwned {
            request_id,
            files: files(rng),
        },
    }
}

/// One random message of every type, encoded as whole frames.
fn frames(rng: &mut SeededRng) -> Vec<Vec<u8>> {
    (0..MESSAGE_TYPES)
        .map(|kind| message(kind, rng).encode())
        .collect()
}

/// The server's fetch decoder agrees with the full decoder: the same
/// fetch when the payload is one, `None` for any other message type
/// (whose body it does not read), and an error otherwise.
fn assert_decoders_agree(payload: &[u8], context: &str) {
    let mut fast_files = vec![FileId(u64::MAX)]; // must be cleared
    let fast = decode_fetch_into(payload, &mut fast_files);
    let full = Message::decode(payload);
    match (&fast, &full) {
        (Ok(Some(header)), Ok(Message::Fetch { request_id, files }))
        | (Ok(Some(header)), Ok(Message::FetchOwned { request_id, files })) => {
            assert_eq!(header.request_id, *request_id, "{context}");
            assert_eq!(
                header.owned,
                matches!(full, Ok(Message::FetchOwned { .. })),
                "{context}"
            );
            assert_eq!(&fast_files, files, "{context}");
        }
        (Ok(None), Ok(other)) => {
            assert!(
                !matches!(other, Message::Fetch { .. } | Message::FetchOwned { .. }),
                "{context}: a fetch was passed over"
            );
            assert!(fast_files.is_empty(), "{context}");
        }
        (Ok(None), Err(_)) => {
            assert!(
                payload.len() >= 2 && !FETCH_TYPES.contains(&payload[1]),
                "{context}: a malformed fetch was passed over"
            );
            assert!(fast_files.is_empty(), "{context}");
        }
        (Err(_), Err(_)) => {}
        _ => panic!("{context}: decoders disagree (fast {fast:?}, full {full:?})"),
    }
}

#[test]
fn every_message_type_round_trips() {
    for seed in seeds() {
        let mut rng = SeededRng::new(seed);
        for (kind, frame) in frames(&mut rng).iter().enumerate() {
            let context = format!("seed {seed}, type {}", kind + 1);
            let decoded = Message::decode(&frame[4..]).expect("a valid payload");
            assert_eq!(&decoded.encode(), frame, "{context}");
            assert_eq!(
                read_frame(&mut frame.as_slice()).expect("a valid frame"),
                decoded,
                "{context}"
            );
            assert_decoders_agree(&frame[4..], &context);
        }
    }
}

#[test]
fn truncation_at_every_byte_is_an_error() {
    for seed in seeds() {
        let mut rng = SeededRng::new(seed);
        for (kind, frame) in frames(&mut rng).iter().enumerate() {
            let payload = &frame[4..];
            for cut in 0..payload.len() {
                let context = format!("seed {seed}, type {}, cut {cut}", kind + 1);
                assert!(
                    Message::decode(&payload[..cut]).is_err(),
                    "{context}: a truncated payload decoded"
                );
                assert_decoders_agree(&payload[..cut], &context);
            }
            for cut in 0..frame.len() {
                assert!(
                    read_frame(&mut &frame[..cut]).is_err(),
                    "seed {seed}, type {}, frame cut {cut}: a truncated frame was read",
                    kind + 1
                );
            }
        }
    }
}

#[test]
fn byte_flips_never_panic_and_decoded_flips_re_encode_exactly() {
    for seed in seeds() {
        let mut rng = SeededRng::new(seed);
        for (kind, frame) in frames(&mut rng).iter().enumerate() {
            let payload = &frame[4..];
            for round in 0..64 {
                let mut mutated = payload.to_vec();
                // 1–3 deterministic flips per round.
                for _ in 0..=rng.gen_index(3) {
                    let pos = rng.gen_index(mutated.len());
                    mutated[pos] ^= 1u8 << rng.gen_index(8);
                }
                let context = format!("seed {seed}, type {}, round {round}", kind + 1);
                if let Ok(decoded) = Message::decode(&mutated) {
                    assert_eq!(decoded.encode()[4..], mutated[..], "{context}");
                }
                assert_decoders_agree(&mutated, &context);
            }
        }
    }
}
