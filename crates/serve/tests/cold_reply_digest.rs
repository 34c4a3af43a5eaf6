//! Every cold reply is pinned byte for byte. A seeded deck of 300 distinct
//! optimize requests in the service's alphabet goes through
//! `Service::handle_line`, each one a cache miss, and the replies are
//! digested with FNV-1a. A change that moves one byte of one reply — a
//! plan, a cost, a lint finding, the spelling of a number — moves the
//! digest; a change that only makes the cold path cheaper leaves it.

use collopt_machine::Rng;
use collopt_serve::Service;

const REQUESTS: usize = 300;
const SEED: u64 = 0xC01D;
const OPERATORS: [&str; 4] = ["add", "mul", "max", "min"];

/// `n` request lines: pipelines of depth 3–6 over
/// `scan/reduce/allreduce/bcast/map` × `add, mul, max, min`, `p` in
/// 2..=1024, `ts` in 10..1000, every `m` distinct (so every cache key is).
fn deck(n: usize, seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let mut used = std::collections::HashSet::new();
    (0..n)
        .map(|id| {
            let depth = rng.range_usize(3, 7);
            let stages: Vec<String> = (0..depth)
                .map(|at| {
                    let op = OPERATORS[rng.range_usize(0, 4)];
                    match rng.below(5) {
                        0 => format!("scan({op})"),
                        1 => format!("reduce({op})"),
                        2 => format!("allreduce({op})"),
                        3 => "bcast".to_string(),
                        _ => format!("map f{at}"),
                    }
                })
                .collect();
            let pipeline = stages.join(" ; ");
            let p = rng.range_usize(2, 1025);
            let ts = rng.range_usize(10, 1000);
            let m = loop {
                let m = rng.range_usize(1, 100_000);
                if used.insert(m) {
                    break m;
                }
            };
            format!(r#"{{"id":{id},"pipeline":"{pipeline}","p":{p},"ts":{ts},"m":{m}}}"#)
        })
        .collect()
}

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[test]
fn cold_replies_are_pinned_byte_for_byte() {
    let service = Service::new(REQUESTS);
    let mut digest = 0xCBF2_9CE4_8422_2325;
    let mut bytes = 0;
    for line in deck(REQUESTS, SEED) {
        let reply = service.handle_line(&line);
        assert!(
            reply.text.contains(r#","ok":true,"#),
            "{line}: {}",
            reply.text
        );
        digest = fnv1a(digest, reply.text.as_bytes());
        bytes += reply.text.len();
    }
    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, REQUESTS as u64));
    assert_eq!(
        (format!("{digest:016x}"), bytes),
        ("b0d6051b17354f40".to_string(), 477_767),
        "the replies moved"
    );
}
